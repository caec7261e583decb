"""Statistical tests used by the verifier.

Kolmogorov-Smirnov p-values come from the asymptotic Kolmogorov distribution,
so sample counts below 1000 are rejected outright rather than silently giving
bad p-values.  The multivariate two-sample test is an energy-distance
permutation test: the upper block triangle of the pooled pairwise distances is
streamed in row blocks through one product with a 0/1 indicator matrix whose
columns are the observed split and every permuted split.
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
_ROW_BLOCK = 256  # pooled rows per distance slab of the energy-distance test


def _check_count(n: int):
    if n < _MIN_KS_COUNT:
        raise ValueError(
            f"KS p-values use the asymptotic Kolmogorov law; need >= {_MIN_KS_COUNT} samples, got {n}"
        )


def _as_columns(x) -> np.ndarray:
    """Float array of (rows, dim) samples; a 1-d array is one scalar per row."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


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


def energy_distance_test(
    a: np.ndarray,
    b: np.ndarray,
    *,
    n_permutations: int = 200,
    seed: int,
    max_points: int = 1600,
) -> tuple[float, float]:
    """Energy-distance permutation test between two multivariate samples.

    A 1-d sample is read as one scalar per row.
    Both samples are subsampled to at most ``max_points`` rows; the
    subsampling and the permutations are driven by ``seed``.  Time is
    quadratic in the pooled size.  The symmetric (size, size) distance matrix
    is never held: only its upper block triangle is built, one row block at
    a time, each off-diagonal block weighted twice, so the distances and the
    product with the split indicators cost half the full matrix.  Memory is
    O(size * (n_permutations + block)).  Returns (statistic, p-value) with
    p = (1 + #{permuted >= observed}) / (1 + n_permutations).
    """
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9E3779B9]))
    a = _as_columns(a)
    b = _as_columns(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share their dimension")
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples need at least one row")
    if a.shape[0] > max_points:
        a = a[rng.choice(a.shape[0], size=max_points, replace=False)]
    if b.shape[0] > max_points:
        b = b[rng.choice(b.shape[0], size=max_points, replace=False)]
    pooled = np.vstack([a, b])
    sq = np.sum(pooled**2, axis=1)
    n = a.shape[0]
    size = pooled.shape[0]
    m = size - n
    # one 0/1 indicator column per split: column 0 is the observed split and
    # column j + 1 permutation j, so every statistic reduces to ind' D ind
    # and rowsum(D) @ ind
    ind = np.zeros((size, n_permutations + 1))
    ind[:n, 0] = 1.0
    for j in range(n_permutations):
        ind[rng.permutation(size)[:n], j + 1] = 1.0
    # only the upper block triangle of the symmetric distance matrix D is
    # built: the slab of row block lo:hi runs from column lo on, its diagonal
    # block counts once and the blocks right of it twice.  The row sums of D
    # (rowsum) collect each off-diagonal block along its rows and columns.
    s_aa = np.zeros(n_permutations + 1)
    rowsum = np.zeros(size)
    for lo in range(0, size, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, size)
        # D[lo:hi, lo:] = sqrt(max(|a|²+|b|²-2a·b, 0))
        slab = np.matmul(pooled[lo:hi], pooled[lo:].T)
        slab *= -2.0
        slab += sq[lo:hi, None]
        slab += sq[None, lo:]
        np.maximum(slab, 0.0, out=slab)
        np.sqrt(slab, out=slab)
        off = slab[:, hi - lo :]
        rowsum[lo:hi] += slab.sum(axis=1)
        rowsum[hi:] += off.sum(axis=0)
        off *= 2.0
        s_aa += np.einsum("ip,ip->p", ind[lo:hi], slab @ ind[lo:])
    total = float(rowsum.sum())
    col = rowsum @ ind
    s_bb = total - 2.0 * col + s_aa
    s_ab = 0.5 * (total - s_aa - s_bb)
    stats = 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)
    observed = float(stats[0])
    hits = int(np.count_nonzero(stats[1:] >= observed))
    p = (1.0 + hits) / (1.0 + n_permutations)
    return observed, p


def lag1_autocorr(series: np.ndarray) -> np.ndarray:
    """Lag-1 autocorrelation of each column of a (steps, dim) array."""
    x = _as_columns(series)
    x = x - x.mean(axis=0)
    denom = np.sum(x * x, axis=0)
    num = np.sum(x[1:] * x[:-1], axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, num / denom, 0.0)
    return rho
