"""Deterministic adaptive quadrature, used as an independent numerical oracle.

The closed-form normalization constants and the exact samplers' scaling are
checked against the defining chamber integrals for n <= 2, in polar
coordinates y = r u.  w_k is homogeneous of degree 2 gamma, so for g of degree d

    int_chamber g(y) exp(-|y|^2/(2t)) w_k(y) dy = 1/2 (2t)^a Gamma(a) int_arc g(u) w_k(u) du

with a = gamma + (n + d)/2.  The radial factor is kept in log space.  The arc
is the points +-1 in the chamber (n = 1) or an arc of the unit circle (n = 2),
where a globally adaptive 7/15-point Gauss scheme integrates the weight
divided by its peak.  Nothing here shares code with the formulas checked.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .core import RootKind, RootSystemSpec, _as_time, homogeneity_degree

__all__ = ["adaptive_gauss", "chamber_weight_integral", "chamber_moment"]

_N15, _W15 = np.polynomial.legendre.leggauss(15)
_N7, _W7 = np.polynomial.legendre.leggauss(7)
_NODES = np.concatenate([_N15, _N7])
_ATOL = 1e-12  # absolute error target of an integral
_MAX_PANELS = 4000  # panels per integral before refinement stops
_RTOL = 1e-8  # relative error target of every arc integral


def adaptive_gauss(f, a: float, b: float, *, rtol: float) -> float:
    """Globally adaptive integral of a vectorized integrand on [a, b].

    ``f`` maps a 1-D array of nodes to the values there.  Each round bisects
    the panel with the largest 7/15 error estimate.
    """
    if not b > a:
        raise ValueError("need b > a")

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        vals = np.asarray(f(0.5 * (lo + hi) + half * _NODES), dtype=float)
        i15 = half * float(vals[:15] @ _W15)
        err = abs(i15 - half * float(vals[15:] @ _W7))
        return -err, lo, hi, i15, err

    heap = [panel(a, b)]
    _, _, _, total, total_err = heap[0]
    while total_err > max(_ATOL, rtol * abs(total)) and len(heap) < _MAX_PANELS:
        _, lo, hi, val, err = heapq.heappop(heap)
        halves = panel(lo, 0.5 * (lo + hi)), panel(0.5 * (lo + hi), hi)
        total += halves[0][3] + halves[1][3] - val
        total_err += halves[0][4] + halves[1][4] - err
        for half in halves:
            heapq.heappush(heap, half)
    return total


def _angular(spec: RootSystemSpec, g) -> tuple[float, float]:
    """(log c, I) with c * I = int_arc g(u) w_k(u) du and c the peak of w_k on the arc.

    ``g`` (default 1) takes u, a 1-D array, for one particle or (u1, u2) for two.
    """
    if spec.n == 1:  # w_k(+-1) = 1, and kind B's half-line holds only +1
        u = np.array([1.0] if spec.kind is RootKind.B else [1.0, -1.0])
        return 0.0, float(np.sum(g(u))) if g is not None else float(u.size)
    if spec.n != 2:
        raise ValueError("the quadrature oracle covers n in {1, 2}")
    # u = (cos theta, sin theta); w_k(u) is a product of base(theta)^k, each base with its peak value
    kpair, kaxis = spec.pair_axis
    if spec.kind is RootKind.A:  # u1 > u2; (u1 - u2)^2 = 1 - sin(2 theta), largest at theta = -pi/4
        arc = (-0.75 * math.pi, 0.25 * math.pi)
        terms = [(kpair, lambda th: 1.0 - np.sin(2.0 * th), 2.0)]
    else:
        # B: u1 > u2 > 0, D: u1 > |u2|.  (u1^2 - u2^2)^2 = cos(2 theta)^2 and (u1 u2)^2 =
        # sin(2 theta)^2 / 4; their product with powers k2 and k1 peaks at sin(2 theta)^2 = s
        arc = (0.0 if spec.kind is RootKind.B else -0.25 * math.pi, 0.25 * math.pi)
        s = kaxis / (kaxis + kpair) if kaxis > 0 else 0.0
        terms = [(kpair, lambda th: np.cos(2.0 * th) ** 2, 1.0 - s),
                 (kaxis, lambda th: 0.25 * np.sin(2.0 * th) ** 2, 0.25 * s)]
    terms = [term for term in terms if term[0] > 0]  # a zero multiplicity has no log and no peak

    def f(theta):
        log_w = np.zeros_like(theta)
        for k, base, peak in terms:
            log_w += k * np.log(base(theta) / peak)
        w = np.exp(log_w)
        return w if g is None else w * g(np.cos(theta), np.sin(theta))

    return sum(k * math.log(peak) for k, _, peak in terms), adaptive_gauss(f, *arc, rtol=_RTOL)


def _log_radial(spec: RootSystemSpec, t: float, degree: float) -> float:
    """log of int_0^inf r^(2a - 1) exp(-r^2/(2t)) dr = 1/2 (2t)^a Gamma(a), a = gamma + (n + degree)/2."""
    a = homogeneity_degree(spec) + 0.5 * (spec.n + degree)
    if not a > 0:
        raise ValueError(f"the radial integral diverges at degree {degree}")
    return a * math.log(2.0 * t) + math.lgamma(a) - math.log(2.0)


def _log_chamber_weight_integral(spec: RootSystemSpec) -> float:
    log_peak, angular = _angular(spec, None)
    return _log_radial(spec, 1.0, 0.0) + log_peak + math.log(angular)


def chamber_weight_integral(spec: RootSystemSpec) -> float:
    """Direct quadrature of the defining integral int_chamber exp(-|y|^2/2) w_k(y) dy.

    n <= 2; the reciprocal is the closed-form normalization constant it
    checks.  Returns ``math.inf`` where the integral passes the float range.
    """
    try:
        return math.exp(_log_chamber_weight_integral(spec))
    except OverflowError:
        return math.inf


def chamber_moment(spec: RootSystemSpec, t: float, g, degree: float) -> float:
    """E[g(y)] under the start-0 density at time t, by quadrature (n <= 2).

    ``g`` is homogeneous of degree ``degree`` and takes the unit-circle points:
    u (a 1-D array) for one particle, (u1, u2) for two.  Calibrates the samplers.
    """
    t = _as_time(t)
    radial = math.exp(_log_radial(spec, t, degree) - _log_radial(spec, t, 0.0))
    return radial * _angular(spec, g)[1] / _angular(spec, None)[1]
