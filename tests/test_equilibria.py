import math

import numpy as np
import pytest

from freeze_bessel import equilibria
from freeze_bessel import (
    RootSystemSpec,
    TargetSource,
    freezing_potential,
    freezing_target,
    hermite_zeros,
    laguerre_minus_one_zeros,
    laguerre_zeros,
    potential_identity_check,
    stationarity_residual,
)


def test_hermite_zeros_closed_forms():
    assert np.allclose(hermite_zeros(1), [0.0])
    assert np.allclose(hermite_zeros(2), [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-14)
    assert np.allclose(hermite_zeros(3), [math.sqrt(1.5), 0.0, -math.sqrt(1.5)], atol=1e-14)


def test_hermite_zeros_match_gauss_hermite_nodes():
    for n in (4, 7, 12, 25):
        nodes = np.polynomial.hermite.hermgauss(n)[0]
        assert np.allclose(hermite_zeros(n), nodes[::-1], atol=1e-12)


def test_hermite_zeros_antisymmetric():
    for n in (2, 5, 8, 13):
        z = hermite_zeros(n)
        assert np.allclose(z + z[::-1], 0.0, atol=1e-13)
        assert np.all(np.diff(z) < 0)


def test_laguerre_zeros_closed_forms():
    assert np.allclose(laguerre_zeros(1, 0.0), [1.0])
    assert np.allclose(laguerre_zeros(1, 2.5), [3.5])
    assert np.allclose(np.sort(laguerre_zeros(2, 0.0)), [2 - math.sqrt(2), 2 + math.sqrt(2)], atol=1e-13)
    assert np.allclose(np.sort(laguerre_zeros(2, 1.0)), [3 - math.sqrt(3), 3 + math.sqrt(3)], atol=1e-13)


def test_laguerre_zeros_match_gauss_laguerre_nodes():
    for n, alpha in ((3, 0.0), (6, 0.0), (9, 0.0)):
        nodes = np.polynomial.laguerre.laggauss(n)[0]
        assert np.allclose(np.sort(laguerre_zeros(n, alpha)), nodes, atol=1e-11)
    for n in (4, 7, 12, 25, 60, 100):
        nodes = np.polynomial.laguerre.laggauss(n)[0]
        assert np.allclose(laguerre_zeros(n, 0.0), nodes[::-1], rtol=1e-13, atol=0.0)


def test_laguerre_minus_one_zeros():
    assert np.allclose(laguerre_minus_one_zeros(1), [0.0])
    got = laguerre_minus_one_zeros(3)
    want = np.array([3 + math.sqrt(3), 3 - math.sqrt(3), 0.0])
    assert np.allclose(got, want, atol=1e-13)
    for n in (2, 4, 9):
        z = laguerre_minus_one_zeros(n)
        assert z[-1] == 0.0
        assert np.allclose(z[:-1], laguerre_zeros(n - 1, 1.0))


def test_freezing_target_closed_forms():
    # kind A targets are the Hermite zeros themselves
    a2 = freezing_target("A", 2)
    assert np.allclose(a2.coords, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-14)
    a3 = freezing_target("A", 3)
    assert np.allclose(a3.coords, [math.sqrt(1.5), 0.0, -math.sqrt(1.5)], atol=1e-14)

    b = freezing_target("B", 2, nu=1.0)
    want = [math.sqrt(4 + 2 * math.sqrt(2)), math.sqrt(4 - 2 * math.sqrt(2))]
    assert np.allclose(b.coords, want, atol=1e-13)

    d = freezing_target("D", 2)
    assert np.allclose(d.coords, [2.0, 0.0], atol=1e-14)
    assert d.coords[-1] == 0.0

    b1 = freezing_target("B", 1, nu=0.7)
    assert np.allclose(b1.coords, [math.sqrt(2 * 0.7)], atol=1e-14)


def test_b_target_with_zero_nu_matches_d_target():
    for n in (2, 3, 5):
        b0 = freezing_target("B", n, nu=0.0)
        d = freezing_target("D", n)
        assert np.allclose(b0.coords, d.coords, atol=1e-13)


def test_freezing_target_metadata():
    assert freezing_target("A", 4).source is TargetSource.HERMITE
    assert freezing_target("B", 3, nu=2.0).source is TargetSource.LAGUERRE_SCALED
    assert freezing_target("D", 3).source is TargetSource.LAGUERRE_MINUS_ONE_SCALED
    t = freezing_target("B", 3, nu=2.0)
    assert t.n == 3 and t.nu == 2.0
    with pytest.raises(ValueError):
        freezing_target("B", 2)  # nu required for kind B
    with pytest.raises(ValueError):
        freezing_target("B", 2, nu=-0.5)
    for nu in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite nu"):
            freezing_target("B", 2, nu)


def test_target_norm_identity():
    # |r|^2 = 2 N (N + nu - 1) for the B-type target
    for n, nu in ((1, 0.5), (2, 1.0), (3, 2.5), (7, 0.25), (30, 1.0)):
        r = freezing_target("B", n, nu=nu).coords
        assert float(r @ r) == pytest.approx(2 * n * (n + nu - 1), rel=1e-12)


def test_a_target_norm_identity():
    # sum of squared Hermite zeros is N(N-1)/2
    for n in (2, 3, 6, 20):
        z = freezing_target("A", n).coords
        assert float(z @ z) == pytest.approx(n * (n - 1) / 2, rel=1e-12)


def test_stationarity_residuals_small():
    cases = [
        *(("A", n, None) for n in (1, 2, 3, 10, 50)),
        *(("B", n, nu) for n in (1, 2, 10, 50) for nu in (0.1, 0.5, 1.0, 2.5, 10.0)),
        *(("B", n, 0.0) for n in (2, 3, 10, 50)),
        *(("D", n, None) for n in (2, 3, 10, 50)),
    ]
    for kind, n, nu in cases:
        # the target carries the residual its gate measured, which the identity report reads
        target = freezing_target(kind, n, nu=nu)
        assert target is freezing_target(kind, n, nu)
        assert target.residual == stationarity_residual(target) < 1e-10
    # B with nu = 0 has D's target and D's roots, so the same residual
    for n in (2, 3, 10, 50):
        assert freezing_target("B", n, 0.0).residual == freezing_target("D", n).residual


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_n_targets_pass_the_residual_gate():
    # the Newton polish keeps the LAPACK zeros inside the 1e-10 gate: in a
    # scan of A, B and D to n = 800 (A also at 1500 and 2000), 60 targets
    # that pass fail without it, A at n = 1500 and 2000 and B(nu = 0.1) from
    # n = 522 among them
    cases = (
        ("A", 300, None), ("B", 300, 1.0), ("D", 300, None), ("A", 1000, None), ("B", 731, 1.0),
        ("D", 265, None), ("D", 362, None), ("D", 731, None),
    )
    for kind, n, nu in cases:
        assert stationarity_residual(freezing_target(kind, n, nu=nu)) < 1e-10
    assert np.all(np.isfinite(hermite_zeros(2000)))
    assert np.all(np.isfinite(laguerre_zeros(1000, 0.0)))
    # the gate is the only size limit; kind D passes every n up to 758 and
    # reaches its rounding floor by n = 1000 (1.6e-10)
    with pytest.raises(RuntimeError, match="stationarity residual"):
        freezing_target("D", 1000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_step_through_a_zero_pivot():
    # x = 0 is an exact zero of P_1, P_3, ... of the odd-n Hermite matrix, so
    # the pivots rho_1, rho_3, ... vanish there; the step stays finite and
    # keeps the exact zero of P_5
    n = 5
    diag, off = np.zeros(n), np.sqrt(np.arange(1, n) / 2.0)
    x = np.array([0.0, hermite_zeros(n)[0]])
    step = equilibria._newton_step(x, diag, off)
    assert np.all(np.isfinite(step))
    assert abs(step[0]) < 1e-150
    assert step[1] == pytest.approx(x[1], abs=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_zeros_fail_loudly(monkeypatch):
    # the Newton step runs on ratios, so degrees where a plain three-term
    # recurrence overflows (Laguerre from n = 363, Hermite from n = 731) give
    # finite zeros with no numpy warning, and targets that pass the gate
    for z in (laguerre_zeros(400, 0.0), hermite_zeros(731)):
        assert np.all(np.isfinite(z))
    assert stationarity_residual(freezing_target("B", 400, nu=1.0)) < 1e-10
    # a NaN residual fails the stationarity gate, and a non-finite Newton
    # result the zero checks (the uncached builder leaves the caches alone)
    monkeypatch.setattr(equilibria, "stationarity_residual", lambda target: math.nan)
    with pytest.raises(RuntimeError, match="stationarity residual nan"):
        freezing_target("B", 7, nu=3.25)
    monkeypatch.setattr(equilibria, "_newton_step", lambda x, diag, off: np.full_like(x, math.nan))
    for alpha in (None, 0.0):
        with pytest.raises(RuntimeError, match="degenerate"):
            equilibria._zeros_cached.__wrapped__(5, alpha)


def test_potential_identity_checks_pass():
    for kind, nu in (("A_at_half", None), ("A_sumsq", None), ("B_full", 1.0), ("B_norm", 2.5)):
        for n in (1, 2, 5, 17, 30):
            assert potential_identity_check(kind, n, nu=nu) < 1e-9, (kind, n)
    # the D potential peaks at the D target with the B closed form at nu = 0
    for n in (2, 3, 5, 10, 30):
        w = freezing_potential(RootSystemSpec.d(n, 1.0), freezing_target("D", n).coords)
        assert abs(w - equilibria._b_potential_max(n, 0.0)) < 1e-9, n


