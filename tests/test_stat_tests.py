import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as ss

from freeze_bessel import stat_tests
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


def _dense_energy_distance_test(a, b, *, n_permutations=200, seed, max_points=1600):
    """The dense algorithm: the whole (size, size) distance matrix, and the
    observed split re-indexed out of it.  Returns (statistic, p-value, mean
    pooled distance)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9E3779B9]))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] > max_points:
        a = a[rng.choice(a.shape[0], size=max_points, replace=False)]
    if b.shape[0] > max_points:
        b = b[rng.choice(b.shape[0], size=max_points, replace=False)]
    pooled = np.vstack([a, b])
    sq = np.sum(pooled**2, axis=1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pooled @ pooled.T), 0.0))
    total = float(dist.sum())
    n = a.shape[0]
    size = pooled.shape[0]
    m = size - n

    def stat(idx_a, idx_b):
        s_aa = float(dist[np.ix_(idx_a, idx_a)].sum())
        s_bb = float(dist[np.ix_(idx_b, idx_b)].sum())
        s_ab = 0.5 * (total - s_aa - s_bb)
        return 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)

    observed = stat(np.arange(n), np.arange(n, size))
    indicators = np.zeros((size, n_permutations))
    for j in range(n_permutations):
        indicators[rng.permutation(size)[:n], j] = 1.0
    prod = dist @ indicators
    s_aa = np.einsum("ip,ip->p", indicators, prod)
    col = prod.sum(axis=0)
    s_bb = total - 2.0 * col + s_aa
    s_ab = 0.5 * (total - s_aa - s_bb)
    stats = 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)
    hits = int(np.count_nonzero(stats >= observed))
    return observed, (1.0 + hits) / (1.0 + n_permutations), total / size**2


def test_energy_distance_memory_and_pinned_value(monkeypatch):
    # 1600 + 1600 subsampled rows: the distances are built in (256, 256)
    # tiles and the splits held as int8, so neither a (3200, 3200) matrix
    # (78 MiB), a (256, 3200) slab nor a float (3200, 201) indicator is alive
    rng = np.random.default_rng(2024)
    a = rng.standard_normal((4096, 10))
    b = rng.standard_normal((4096, 10)) + 0.02
    tracemalloc.start()
    try:
        stat, p = energy_distance_test(a, b, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert (stat, p) == (float.fromhex("0x1.0893215933c00p-7"), 4.0 / 201.0)
    # the dense (3200, 3200) build sums the same distances in another order
    dense_stat, dense_p, mean_dist = _dense_energy_distance_test(a, b, seed=7)
    assert (dense_stat, dense_p) == (float.fromhex("0x1.0893215934000p-7"), p)
    assert abs(stat - dense_stat) <= 1e-12 * mean_dist
    # 3000 + 3000 rows: a dense build needs two 275 MiB matrices; the tiled
    # one stays within a bound that does not grow with the cap²
    monkeypatch.setattr(stat_tests, "_MAX_POINTS", 3000)
    tracemalloc.start()
    try:
        energy_distance_test(a, b, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "rows_a, rows_b, dim, n_permutations, max_points, shift",
    [
        (60, 90, 2, 19, 1600, 0.0),  # pooled size below one row block
        (256, 256, 3, 200, 1600, 0.05),  # pooled size a multiple of the block
        (130, 127, 2, 19, 1600, 0.1),  # one pooled row past a block
        (700, 513, 10, 200, 1600, 0.1),  # pooled size not a multiple of the block
        (2100, 900, 1, 200, 1200, 0.05),  # unequal sizes, only one side subsampled
        (1800, 1700, 2, 19, 1600, 0.0),  # both sides subsampled
        (400, 1100, 10, 19, 1600, 0.0),
        (333, 333, 1, 200, 1600, 0.2),
    ],
)
def test_energy_distance_matches_dense_reference(rows_a, rows_b, dim, n_permutations, max_points, shift,
                                                monkeypatch):
    monkeypatch.setattr(stat_tests, "_MAX_POINTS", max_points)
    rng = np.random.default_rng(rows_a * 7919 + rows_b)
    a = rng.standard_normal((rows_a, dim))
    b = rng.standard_normal((rows_b, dim)) * 1.05 + shift
    for seed in (3, 41):
        stat, p = energy_distance_test(a, b, n_permutations=n_permutations, seed=seed)
        ref_stat, ref_p, mean_dist = _dense_energy_distance_test(
            a, b, n_permutations=n_permutations, seed=seed, max_points=max_points
        )
        assert p == ref_p
        assert abs(stat - ref_stat) <= 1e-12 * mean_dist


def test_energy_distance_reads_1d_samples_as_columns():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(2000)
    b = 3.0 * rng.standard_normal(2000)
    one_d = energy_distance_test(a, b, seed=5)
    assert one_d == energy_distance_test(a[:, None], b[:, None], seed=5)
    assert one_d[1] <= 0.01


def test_energy_distance_counts_ties_as_hits():
    # one point mass on both sides: every split ties with the observed one
    point = np.full((12, 3), 0.5)
    assert energy_distance_test(point[:5], point[5:], seed=0) == (0.0, 1.0)


def test_energy_distance_rejects_void_inputs():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((50, 2))
    b = rng.standard_normal((40, 2))
    with pytest.raises(ValueError, match="n_permutations"):
        energy_distance_test(a, b, seed=0, n_permutations=0)
    for empty_a, empty_b in ((a[:0], b), (a, b[:0])):
        with pytest.raises(ValueError, match="row"):
            energy_distance_test(empty_a, empty_b, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tests_refuse_non_finite_samples(bad, monkeypatch):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((1500, 2))
    b = rng.standard_normal((1500, 2))
    a[700, 1] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        ks_test_cdf(a[:, 1], lambda v: normal_cdf(v, 1.0))
    # the energy test checks before it keeps 100 rows, so the outcome does
    # not depend on whether the seed keeps the bad row
    monkeypatch.setattr(stat_tests, "_MAX_POINTS", 100)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="NaN or inf"):
            ks_test_two_sample(x[:, 1], y[:, 1])
        for seed in (0, 1, 2):
            with pytest.raises(ValueError, match="NaN or inf"):
                energy_distance_test(x, y, seed=seed)
