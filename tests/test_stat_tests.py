import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as ss

from freeze_bessel.stat_tests import (
    chi_square_cdf,
    energy_distance_test,
    half_normal_cdf,
    ks_test_cdf,
    ks_test_two_sample,
    lag1_autocorr,
    mahalanobis_sq,
    normal_cdf,
)


def test_cdfs_match_reference():
    x = np.linspace(-6, 6, 41)
    assert np.allclose(normal_cdf(x, 1.3), ss.norm.cdf(x, scale=1.3), atol=1e-12)
    xp = np.linspace(0, 8, 33)
    assert np.allclose(half_normal_cdf(xp, 0.7), ss.halfnorm.cdf(xp, scale=0.7), atol=1e-12)
    for df in (1.0, 2.0, 3.0, 7.5):
        assert np.allclose(chi_square_cdf(xp, df), ss.chi2.cdf(xp, df), atol=1e-11)


def test_ks_one_sample_calibration():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5000)
    stat, p = ks_test_cdf(x, lambda v: normal_cdf(v, 1.0))
    ref = ss.kstest(x, "norm", method="asymp")
    assert stat == pytest.approx(ref.statistic, rel=1e-9)
    assert p == pytest.approx(ref.pvalue, rel=1e-6)
    assert p > 0.01
    # a shifted sample is rejected decisively
    _, p_bad = ks_test_cdf(x + 0.2, lambda v: normal_cdf(v, 1.0))
    assert p_bad < 1e-10


def test_ks_two_sample_basics():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(4000)
    b = rng.standard_normal(4000)
    _, p_null = ks_test_two_sample(a, b)
    assert p_null > 0.01
    _, p_alt = ks_test_two_sample(a, b + 0.25)
    assert p_alt < 1e-8


def test_ks_enforces_minimum_count():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        ks_test_cdf(rng.standard_normal(500), lambda v: normal_cdf(v, 1.0))
    with pytest.raises(ValueError):
        ks_test_two_sample(rng.standard_normal(500), rng.standard_normal(5000))


def test_mahalanobis_sq():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((100, 3))
    assert np.allclose(mahalanobis_sq(pts, np.eye(3)), np.sum(pts ** 2, axis=1), atol=1e-12)
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    pts2 = rng.standard_normal((50, 2))
    want = np.einsum("ij,jk,ik->i", pts2, np.linalg.inv(cov), pts2)
    assert np.allclose(mahalanobis_sq(pts2, cov), want, atol=1e-10)


def test_mahalanobis_whitening_gives_chi_square():
    rng = np.random.default_rng(6)
    cov = np.array([[1.5, -0.4], [-0.4, 0.8]])
    chol = np.linalg.cholesky(cov)
    pts = rng.standard_normal((20000, 2)) @ chol.T
    _, p = ks_test_cdf(mahalanobis_sq(pts, cov), lambda v: chi_square_cdf(v, 2.0))
    assert p > 0.01


def test_energy_distance_null_and_alternative():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3000, 2))
    b = rng.standard_normal((3000, 2))
    _, p_null = energy_distance_test(a, b, seed=11)
    assert p_null > 0.01
    c = rng.standard_normal((3000, 2)) * 1.6
    _, p_alt = energy_distance_test(a, c, seed=11)
    assert p_alt <= 0.01


def test_energy_distance_deterministic_in_seed():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((1500, 2))
    b = rng.standard_normal((1500, 2)) + 0.05
    r1 = energy_distance_test(a, b, seed=123)
    r2 = energy_distance_test(a, b, seed=123)
    assert r1 == r2
    r3 = energy_distance_test(a, b, seed=124)
    assert r3 != r1  # permutation draw changes with the seed


def test_lag1_autocorr():
    rng = np.random.default_rng(9)
    white = rng.standard_normal(20000)
    assert abs(float(lag1_autocorr(white)[0])) < 0.03
    # AR(1) with coefficient 0.6
    x = np.empty(20000)
    x[0] = 0.0
    eps = rng.standard_normal(20000)
    for i in range(1, x.size):
        x[i] = 0.6 * x[i - 1] + eps[i]
    assert float(lag1_autocorr(x)[0]) == pytest.approx(0.6, abs=0.03)
    # columns are handled independently
    both = np.stack([white, x], axis=1)
    rho = lag1_autocorr(both)
    assert rho.shape == (2,)
    assert abs(rho[0]) < 0.03 and rho[1] == pytest.approx(0.6, abs=0.03)


def test_energy_distance_memory_and_pinned_value():
    # 1600 + 1600 subsampled rows: one (3200, 3200) float matrix is 78 MiB,
    # and the distance matrix is built with at most two of them alive
    rng = np.random.default_rng(2024)
    a = rng.standard_normal((4096, 10))
    b = rng.standard_normal((4096, 10)) + 0.02
    tracemalloc.start()
    try:
        stat, p = energy_distance_test(a, b, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 192 * 2**20
    assert (stat, p) == (float.fromhex("0x1.0893215934000p-7"), 4.0 / 201.0)
