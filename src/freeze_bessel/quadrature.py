"""Deterministic adaptive quadrature, used as an independent numerical oracle.

The closed-form normalization constants and the exact samplers are both
cross-checked against direct integration of the defining densities over the
chamber, for one and two particles.  The integrator is a globally adaptive
bisection scheme with an embedded 7/15-point Gauss pair per interval (the
nodes come from ``numpy.polynomial.legendre``); nothing here shares code with
the formulas being checked.

Two-particle integrals are iterated: one adaptive integral over y1 per outer
node y2.  Those inner integrals run batched, each with its own panel heap and
stop test, and every refinement round evaluates the integrand once for all of
them, so two-particle integrands must broadcast over ``y1`` of shape
``(rows, nodes)`` and ``y2`` of shape ``(rows, 1)``.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .core import RootKind, RootSystemSpec, homogeneity_degree

__all__ = [
    "adaptive_gauss",
    "ordered_integral_2d",
    "chamber_weight_integral",
    "chamber_moment",
]

_N15, _W15 = np.polynomial.legendre.leggauss(15)
_N7, _W7 = np.polynomial.legendre.leggauss(7)
_NODES = np.concatenate([_N15, _N7])
_ATOL = 1e-12  # absolute error target of an integral; its inner integrals take a tenth
_MAX_PANELS = 4000  # panels per integral before refinement stops
_MOMENT_RTOL = 1e-8


def _panels(f, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integral estimates on the panels [lo_j, hi_j] plus error estimates from a 7/15 pair.

    ``f(x, rows)`` gets the nodes ``x`` of shape (panels, 22) and the row each
    panel belongs to, and returns the integrand values at ``x``.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    vals = np.asarray(f(x, rows), dtype=float)
    i15 = half * (vals[:, :15] @ _W15)
    i7 = half * (vals[:, 15:] @ _W7)
    return i15, np.abs(i15 - i7)


def _adaptive_rows(f, a, b, *, atol: float, rtol: float) -> np.ndarray:
    """Globally adaptive integrals over [a_r, b_r], one per row r, batched.

    Each row keeps its own heap of panels and its own stop test.  A round
    bisects the worst panel of every unfinished row and evaluates the halves
    of all of them in one call of ``f`` (see ``_panels``).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(b > a):
        raise ValueError("need b > a")
    heaps: list[list] = [[] for _ in range(a.size)]

    def push(rows, lo, hi, vals, errs):
        panels = zip(rows.tolist(), lo.tolist(), hi.tolist(), vals.tolist(), errs.tolist())
        for r, p_lo, p_hi, p_v, p_e in panels:
            heapq.heappush(heaps[r], (-p_e, p_lo, p_hi, p_v, p_e))

    rows = np.arange(a.size)
    totals, total_errs = _panels(f, a, b, rows)
    push(rows, a, b, totals, total_errs)
    n_panels = np.ones(a.size, dtype=int)
    while True:
        unfinished = total_errs > np.maximum(atol, rtol * np.abs(totals))
        active = rows[unfinished & (n_panels < _MAX_PANELS)]
        if not active.size:
            return totals
        lo, hi, val, err = np.array([heapq.heappop(heaps[r])[1:] for r in active.tolist()]).T
        mid = 0.5 * (lo + hi)
        sub_rows = np.tile(active, 2)
        sub_lo, sub_hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        v, e = _panels(f, sub_lo, sub_hi, sub_rows)
        m = active.size
        totals[active] += v[:m] + v[m:] - val
        total_errs[active] += e[:m] + e[m:] - err
        push(sub_rows, sub_lo, sub_hi, v, e)
        n_panels[active] += 1


def adaptive_gauss(f, a: float, b: float, *, rtol: float) -> float:
    """Globally adaptive integral of a vectorized integrand on [a, b].

    ``f`` maps a 1-D array of nodes to the integrand values there.
    """
    return float(_adaptive_rows(
        lambda x, rows: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape), [a], [b], atol=_ATOL, rtol=rtol,
    )[0])


def ordered_integral_2d(f, outer_lo: float, outer_hi: float, inner_lo, inner_hi: float, *, rtol: float) -> float:
    """Integral of f(y1, y2) over {inner_lo(y2) <= y1 <= inner_hi, outer_lo <= y2 <= outer_hi}.

    ``f`` must broadcast over ``y1`` of shape (rows, nodes) and ``y2`` of
    shape (rows, 1): one row per outer node, whose inner integrals are
    refined together.  ``inner_lo`` maps the 1-D array of outer nodes to the
    lower limits of the inner variable (the chamber ordering constraint);
    where it reaches ``inner_hi`` the inner integral is 0.
    """

    def outer_integrand(y2):
        lo = np.asarray(inner_lo(y2), dtype=float)
        out = np.zeros_like(y2)
        live = np.flatnonzero(~(lo >= inner_hi))  # a NaN limit stays live and fails the b > a check
        if live.size:
            y2_live = y2[live, None]
            out[live] = _adaptive_rows(
                lambda x, rows: f(x, y2_live[rows]),
                lo[live], np.full(live.size, inner_hi), atol=_ATOL * 0.1, rtol=rtol * 0.1,
            )
        return out

    return adaptive_gauss(outer_integrand, outer_lo, outer_hi, rtol=rtol)


def _truncation_radius(spec: RootSystemSpec) -> float:
    gamma = homogeneity_degree(spec)
    return math.sqrt(4.0 * gamma + 2.0 * spec.n) + 10.0


def _weight_factor(spec: RootSystemSpec, y1, y2):
    """w_k(y1, y2) for two particles (broadcast over y1 and y2)."""
    kpair, kaxis = spec.pair_axis
    w = np.ones_like(y1)
    if kpair > 0:
        pair = y1 - y2 if spec.kind is RootKind.A else y1**2 - y2**2
        w = w * pair ** (2.0 * kpair)
    if kaxis > 0:
        w = w * (y1 * y2) ** (2.0 * kaxis)
    return w


def _chamber_integral(spec: RootSystemSpec, t: float, radius: float, rtol: float, g=None) -> float:
    """int over the chamber (truncated at ``radius``) of g(y) exp(-|y|^2/(2t)) w_k(y) dy.

    ``g`` defaults to 1; it takes y for one particle (a 1-D array of nodes)
    or (y1, y2) for two, broadcasting as in ``ordered_integral_2d``.
    """
    if spec.n == 1:
        # the one-particle chamber is the whole line with weight 1 (kind A),
        # or the half-line with weight y^(2 k1) (kind B)
        lo = 0.0 if spec.kind is RootKind.B else -radius
        kaxis = spec.pair_axis[1]

        def rho(y):
            w = y ** (2.0 * kaxis) if kaxis > 0 else np.ones_like(y)
            return np.exp(-0.5 * y**2 / t) * w

        f = rho if g is None else (lambda y: np.asarray(g(y), float) * rho(y))
        return adaptive_gauss(f, lo, radius, rtol=rtol)
    if spec.n != 2:
        raise ValueError("the quadrature oracle covers n in {1, 2}")

    def rho2(y1, y2):
        return np.exp(-0.5 * (y1**2 + y2**2) / t) * _weight_factor(spec, y1, y2)

    outer_lo = 0.0 if spec.kind is RootKind.B else -radius
    inner_lo = np.abs if spec.kind is RootKind.D else (lambda y2: y2)
    f2 = rho2 if g is None else (lambda y1, y2: np.asarray(g(y1, y2), float) * rho2(y1, y2))
    return ordered_integral_2d(f2, outer_lo, radius, inner_lo, radius, rtol=rtol)


def chamber_weight_integral(spec: RootSystemSpec, *, rtol: float = 1e-9) -> float:
    """Direct quadrature of the defining integral int_chamber exp(-|y|^2/2) w_k(y) dy.

    Supports one and two particles; the reciprocal is the closed-form
    normalization constant this value is used to cross-check.
    """
    return _chamber_integral(spec, 1.0, _truncation_radius(spec), rtol)


def chamber_moment(spec: RootSystemSpec, t: float, g) -> float:
    """E[g(y)] under the start-0 density at time t, by quadrature (n <= 2).

    ``g`` takes y for one particle (a 1-D array of nodes) or (y1, y2) for
    two, broadcasting over ``y1`` of shape (rows, nodes) and ``y2`` of shape
    (rows, 1) as in ``ordered_integral_2d``.
    Used to calibrate the exact samplers' scaling conventions.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    radius = _truncation_radius(spec) * math.sqrt(max(t, 1.0))
    return _chamber_integral(spec, t, radius, _MOMENT_RTOL, g) / _chamber_integral(spec, t, radius, _MOMENT_RTOL)
