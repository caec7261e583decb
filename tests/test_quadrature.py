import heapq
import math

import numpy as np
import pytest

from freeze_bessel import quadrature
from freeze_bessel import (
    RootKind,
    RootSystemSpec,
    adaptive_gauss,
    chamber_moment,
    chamber_weight_integral,
    homogeneity_degree,
    log_norm_constant,
)

# the n = 2 settings of the identity suite's normalization-vs-quadrature check
IDENTITY_GRID_N2 = (
    [RootSystemSpec.a(2, k) for k in (0.5, 1.0, 2.5)]
    + [RootSystemSpec.b(2, k1, k2) for k1, k2 in ((0.5, 0.5), (1.0, 1.0), (2.5, 0.5))]
    + [RootSystemSpec.d(2, k) for k in (0.5, 1.0, 2.5)]
)


def _spec_id(spec):
    return f"{spec.kind.value}{spec.multiplicity}".replace(" ", "")


def _scalar_adaptive_gauss(f, a, b, *, atol, rtol, max_panels=4000):
    """Reference: one scalar adaptive 7/15 Gauss loop per integral, one integrand call per panel."""
    n15, w15 = np.polynomial.legendre.leggauss(15)
    n7, w7 = np.polynomial.legendre.leggauss(7)

    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = np.asarray(f(mid + half * np.concatenate([n15, n7])), dtype=float)
        i15 = half * float(w15 @ vals[:15])
        return i15, abs(i15 - half * float(w7 @ vals[15:]))

    value, err = panel(a, b)
    heap = [(-err, a, b, value, err)]
    total, total_err, panels = value, err, 1
    while total_err > max(atol, rtol * abs(total)) and panels < max_panels:
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        panels += 1
    return total


def _weight_factor(spec, y1, y2):
    """w_k(y1, y2) for two particles in Cartesian coordinates."""
    kpair, kaxis = spec.pair_axis
    pair = y1 - y2 if spec.kind is RootKind.A else y1**2 - y2**2
    return pair ** (2.0 * kpair) * (y1 * y2) ** (2.0 * kaxis)


def _nested_chamber_weight_integral(spec, rtol):
    """Reference: the n = 2 chamber integral in Cartesian coordinates, truncated where the
    Gaussian tail is below rounding, with one scalar inner integral over y1 per outer node y2."""
    radius = math.sqrt(4.0 * homogeneity_degree(spec) + 2.0 * spec.n) + 10.0
    outer_lo = 0.0 if spec.kind is RootKind.B else -radius
    inner_lo = abs if spec.kind is RootKind.D else (lambda y2: y2)

    def outer(y2_vals):
        out = np.zeros_like(y2_vals)
        for idx, y2 in enumerate(y2_vals):
            out[idx] = _scalar_adaptive_gauss(
                lambda y1: np.exp(-0.5 * (y1**2 + y2**2)) * _weight_factor(spec, y1, y2),
                inner_lo(y2), radius, atol=1e-13, rtol=rtol * 0.1,
            )
        return out

    return _scalar_adaptive_gauss(outer, outer_lo, radius, atol=1e-12, rtol=rtol)


def test_adaptive_gauss_polynomials_exact():
    assert adaptive_gauss(lambda x: x ** 2, 0.0, 1.0, rtol=1e-10) == pytest.approx(1 / 3, rel=1e-12)
    assert adaptive_gauss(lambda x: x ** 7 - x, -1.0, 2.0, rtol=1e-10) == pytest.approx(
        (2.0 ** 8 - 1.0) / 8 - (2.0 ** 2 - 1.0) / 2, rel=1e-12
    )


def test_adaptive_gauss_transcendental():
    assert adaptive_gauss(np.exp, 0.0, 3.0, rtol=1e-10) == pytest.approx(math.exp(3) - 1, rel=1e-11)
    assert adaptive_gauss(lambda x: np.exp(-0.5 * x ** 2), -8.0, 8.0, rtol=1e-10) == pytest.approx(
        math.sqrt(2 * math.pi), rel=1e-11
    )


def test_adaptive_gauss_integrable_singularity():
    assert adaptive_gauss(lambda x: 1 / np.sqrt(x), 1e-12, 1.0, rtol=1e-8) == pytest.approx(
        2.0, rel=1e-5
    )


def _norm_from_quadrature(spec):
    return 1.0 / chamber_weight_integral(spec)


def test_norm_constants_match_quadrature_a():
    for n, k in ((1, 0.5), (1, 2.0), (2, 0.5), (2, 1.0), (2, 2.5)):
        spec = RootSystemSpec.a(n, k)
        value = math.exp(log_norm_constant("cA", n=n, k=k))
        assert value == pytest.approx(_norm_from_quadrature(spec), rel=1e-8)


def test_norm_constants_match_quadrature_b():
    for n, k1, k2 in ((1, 0.5, 1.0), (1, 2.5, 0.5), (2, 0.5, 0.5), (2, 1.0, 1.0)):
        spec = RootSystemSpec.b(n, k1, k2)
        value = math.exp(log_norm_constant("cB", n=n, k1=k1, k2=k2))
        assert value == pytest.approx(_norm_from_quadrature(spec), rel=1e-8)


def test_norm_constants_match_quadrature_d():
    for k in (0.5, 1.0, 2.5):
        spec = RootSystemSpec.d(2, k)
        value = math.exp(log_norm_constant("cD", n=2, k=k))
        assert value == pytest.approx(_norm_from_quadrature(spec), rel=1e-8)


def test_chamber_moment_symmetry_and_energy():
    # stationary second moment: E|y|^2 = t (N + 2 gamma) with gamma the
    # homogeneity degree of the weight
    for spec in (RootSystemSpec.a(2, 1.0), RootSystemSpec.b(2, 1.0, 1.0), RootSystemSpec.d(2, 0.5)):
        gamma = homogeneity_degree(spec)
        for t in (0.5, 1.0):
            got = chamber_moment(spec, t, lambda y1, y2: y1 ** 2 + y2 ** 2, 2)
            assert got == pytest.approx(t * (2 + 2 * gamma), rel=1e-7), spec
    # one particle: E[y^2] = t (1 + 2 k1) on kind B's half-line, t on kind A's line
    for spec, want in ((RootSystemSpec.b(1, 1.5, 0.7), 4.0), (RootSystemSpec.a(1, 2.0), 1.0)):
        for t in (0.5, 1.0):
            assert chamber_moment(spec, t, lambda y: y ** 2, 2) == pytest.approx(t * want, rel=1e-12), spec
    # E[1/y^2] diverges for kind A's one-particle Gaussian
    with pytest.raises(ValueError, match="diverges"):
        chamber_moment(RootSystemSpec.a(1, 2.0), 1.0, lambda y: y ** -2.0, -2)


def test_chamber_moment_a_mean_is_zero():
    spec = RootSystemSpec.a(2, 1.5)
    assert chamber_moment(spec, 1.0, lambda y1, y2: y1 + y2, 1) == pytest.approx(0.0, abs=1e-9)


def test_chamber_moment_t_scaling():
    spec = RootSystemSpec.b(2, 1.0, 0.5)
    m1 = chamber_moment(spec, 1.0, lambda y1, y2: y1, 1)
    m4 = chamber_moment(spec, 4.0, lambda y1, y2: y1, 1)
    assert m4 == pytest.approx(2.0 * m1, rel=1e-7)


@pytest.mark.parametrize("spec", IDENTITY_GRID_N2, ids=_spec_id)
def test_batched_inner_integrals_match_nested_scalar_reference(spec):
    # the polar oracle against the Cartesian 2-D integral: no shared geometry or weight code
    got = chamber_weight_integral(spec)
    ref = _nested_chamber_weight_integral(spec, 1e-8)
    assert abs(got - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("spec", IDENTITY_GRID_N2, ids=_spec_id)
def test_identity_grid_integrand_call_budget(spec, monkeypatch):
    # one 1-D angular integral of a smooth weight: a few panels, not a 2-D grid of them
    calls = []
    integrate = quadrature.adaptive_gauss

    def counted(f, a, b, **kw):
        def f_counted(x):
            calls.append(1)
            return f(x)

        return integrate(f_counted, a, b, **kw)

    monkeypatch.setattr(quadrature, "adaptive_gauss", counted)
    chamber_weight_integral(spec)
    assert 0 < len(calls) <= 10


def test_chamber_moment_of_y2_dependent_function():
    # A, n = 2: y1*y2 = (s^2 - d^2)/2 with s, d the centre and spread coordinates,
    # E[s^2] = t and E[d^2] = t(2k + 1), so E[y1*y2] = -k t; for D, n = 2 it is 0 by symmetry
    for t in (0.5, 2.0):
        got = chamber_moment(RootSystemSpec.a(2, 1.5), t, lambda y1, y2: y1 * y2, 2)
        assert got == pytest.approx(-1.5 * t, rel=1e-8)
        got = chamber_moment(RootSystemSpec.d(2, 1.0), t, lambda y1, y2: y1 * y2, 2)
        assert got == pytest.approx(0.0, abs=1e-8 * t)


@pytest.mark.parametrize(
    "spec", [RootSystemSpec.b(2, 50.0, 50.0), RootSystemSpec.d(2, 100.0), RootSystemSpec.b(2, 200.0, 200.0)],
    ids=_spec_id,
)
def test_large_multiplicity_integrals_meet_the_constants_in_log_space(spec):
    # the integrals pass the float range: the value is inf, never NaN, and its log is exact
    if spec.kind is RootKind.B:
        log_c = log_norm_constant("cB", n=2, k1=spec.k1, k2=spec.k2)
    else:
        log_c = log_norm_constant("cD", n=2, k=spec.k)
    assert quadrature._log_chamber_weight_integral(spec) == pytest.approx(-log_c, abs=1e-8)
    assert chamber_weight_integral(spec) == math.inf


def test_large_multiplicity_a_integral_inverts_its_constant():
    assert chamber_weight_integral(RootSystemSpec.a(2, 100.0)) * math.exp(log_norm_constant("cA", n=2, k=100.0)) == (
        pytest.approx(1.0, abs=1e-8)
    )
