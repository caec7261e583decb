"""Statistical tests used by the verifier.

Kolmogorov-Smirnov p-values come from the asymptotic Kolmogorov distribution,
so sample counts below 1000 are rejected outright rather than silently giving
bad p-values.  The multivariate two-sample test is an energy-distance
permutation test (the pooled pairwise-distance matrix is computed once and
re-indexed per permutation).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaincc, kolmogorov, ndtr

__all__ = [
    "ks_test_cdf",
    "ks_test_two_sample",
    "normal_cdf",
    "half_normal_cdf",
    "chi_square_cdf",
    "mahalanobis_sq",
    "energy_distance_test",
    "lag1_autocorr",
]

_MIN_KS_COUNT = 1000


def _check_count(n: int):
    if n < _MIN_KS_COUNT:
        raise ValueError(
            f"KS p-values use the asymptotic Kolmogorov law; need >= {_MIN_KS_COUNT} samples, got {n}"
        )


def ks_test_cdf(samples, cdf) -> tuple[float, float]:
    """One-sample KS statistic and asymptotic p-value against a given CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    _check_count(n)
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    d = max(d_plus, d_minus)
    p = float(kolmogorov(d * math.sqrt(n)))
    return float(d), p


def ks_test_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    _check_count(min(a.size, b.size))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    p = float(kolmogorov(d * math.sqrt(n_eff)))
    return d, p


def normal_cdf(x, sigma: float):
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return ndtr(np.asarray(x, dtype=float) / sigma)


def half_normal_cdf(x, sigma: float):
    """CDF of |Z| with Z ~ N(0, sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, 2.0 * ndtr(x / sigma) - 1.0)


def chi_square_cdf(x, df: float):
    x = np.asarray(x, dtype=float)
    return 1.0 - gammaincc(df / 2.0, np.maximum(x, 0.0) / 2.0)


def mahalanobis_sq(points: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis norms |L^{-1} x|^2 with cov = L L^T, rows of points."""
    chol = np.linalg.cholesky(cov)
    white = solve_triangular(chol, np.asarray(points, float).T, lower=True)
    return np.sum(white**2, axis=0)


def _energy_stat(dist: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray, total: float) -> float:
    n, m = idx_a.size, idx_b.size
    s_aa = float(dist[np.ix_(idx_a, idx_a)].sum())
    s_bb = float(dist[np.ix_(idx_b, idx_b)].sum())
    s_ab = 0.5 * (total - s_aa - s_bb)
    return 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)


def energy_distance_test(
    a: np.ndarray,
    b: np.ndarray,
    *,
    n_permutations: int = 200,
    seed: int,
    max_points: int = 1600,
) -> tuple[float, float]:
    """Energy-distance permutation test between two multivariate samples.

    Both samples are subsampled to at most ``max_points`` rows (pairwise
    distances are quadratic in the pooled size); the subsampling and the
    permutations are driven by ``seed``.  Returns (statistic, p-value) with
    p = (1 + #{permuted >= observed}) / (1 + n_permutations).
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9E3779B9]))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share their dimension")
    if a.shape[0] > max_points:
        a = a[rng.choice(a.shape[0], size=max_points, replace=False)]
    if b.shape[0] > max_points:
        b = b[rng.choice(b.shape[0], size=max_points, replace=False)]
    pooled = np.vstack([a, b])
    sq = np.sum(pooled**2, axis=1)
    gram = pooled @ pooled.T
    # the distance matrix is built in place, with at most two (size, size)
    # arrays alive at once, in the float order of sqrt(max(|a|²+|b|²-2a·b, 0))
    dist = np.add(sq[:, None], sq[None, :])
    gram *= 2.0
    np.subtract(dist, gram, out=dist)
    del gram
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    total = float(dist.sum())
    n = a.shape[0]
    size = pooled.shape[0]
    m = size - n
    observed = _energy_stat(dist, np.arange(n), np.arange(n, size), total)
    # one 0/1 indicator column per permutation, so all replicate statistics
    # reduce to a single dist @ Z product
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
    p = (1.0 + hits) / (1.0 + n_permutations)
    return observed, p


def lag1_autocorr(series: np.ndarray) -> np.ndarray:
    """Lag-1 autocorrelation of each column of a (steps, dim) array."""
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    x = x - x.mean(axis=0)
    denom = np.sum(x * x, axis=0)
    num = np.sum(x[1:] * x[:-1], axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, num / denom, 0.0)
    return rho
