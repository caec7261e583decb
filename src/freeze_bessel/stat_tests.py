"""Statistical tests used by the verifier.

Kolmogorov-Smirnov p-values come from the asymptotic Kolmogorov distribution,
so sample counts below 1000 are rejected outright rather than silently giving
bad p-values.  The multivariate two-sample test is an energy-distance
permutation test: the upper block triangle of the pooled pairwise distances is
built one square tile at a time, and each tile is multiplied into an int8
membership matrix whose columns are the observed split and every permuted
split.  The KS and energy-distance tests refuse samples that hold NaN or inf.
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
_ROW_BLOCK = 256  # side of a square distance tile of the energy-distance test
_MAX_POINTS = 1600  # rows kept of each energy-distance sample


def _check_count(n: int):
    if n < _MIN_KS_COUNT:
        raise ValueError(
            f"KS p-values use the asymptotic Kolmogorov law; need >= {_MIN_KS_COUNT} samples, got {n}"
        )


def _check_finite(x: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} holds NaN or inf")
    return x


def _as_columns(x) -> np.ndarray:
    """Float array of (rows, dim) samples; a 1-d array is one scalar per row."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def ks_test_cdf(samples, cdf) -> tuple[float, float]:
    """One-sample KS statistic and asymptotic p-value against a given CDF."""
    x = np.sort(_check_finite(np.asarray(samples, dtype=float), "samples"))
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
    a = np.sort(_check_finite(np.asarray(a, dtype=float), "sample a"))
    b = np.sort(_check_finite(np.asarray(b, dtype=float), "sample b"))
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
) -> tuple[float, float]:
    """Energy-distance permutation test between two multivariate samples.

    A 1-d sample is read as one scalar per row.
    Both samples are subsampled to at most 1600 rows; the
    subsampling and the permutations are driven by ``seed``.  A sample that
    holds NaN or inf is refused before any row is dropped.  Time is quadratic
    in the pooled size.  The symmetric (size, size) distance matrix is never
    held: only its upper block triangle is built, one square (tile, tile)
    tile at a time, each off-diagonal tile weighted twice, so the distances
    and their product with the splits cost half the full matrix.  The splits
    are one int8 membership matrix.  Memory is O(size * n_permutations)
    bytes plus O(tile * (tile + n_permutations)) floats.  Returns
    (statistic, p-value) with
    p = (1 + #{permuted >= observed}) / (1 + n_permutations).
    """
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9E3779B9]))
    a = _check_finite(_as_columns(a), "sample a")
    b = _check_finite(_as_columns(b), "sample b")
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share their dimension")
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples need at least one row")
    if a.shape[0] > _MAX_POINTS:
        a = a[rng.choice(a.shape[0], size=_MAX_POINTS, replace=False)]
    if b.shape[0] > _MAX_POINTS:
        b = b[rng.choice(b.shape[0], size=_MAX_POINTS, replace=False)]
    pooled = np.vstack([a, b])
    sq = np.sum(pooled**2, axis=1)
    n = a.shape[0]
    size = pooled.shape[0]
    m = size - n
    # one int8 membership column per split: column 0 is the observed split
    # and column j + 1 permutation j, so every statistic reduces to
    # member' D member and rowsum(D) @ member
    member = np.zeros((size, n_permutations + 1), dtype=np.int8)
    member[:n, 0] = 1
    for j in range(n_permutations):
        member[rng.permutation(size)[:n], j + 1] = 1
    # only the upper block triangle of the symmetric distance matrix D is
    # built, one square tile at a time: the diagonal tile of row block I
    # counts once and the tiles right of it twice (doubling the membership
    # is exact).  rowsum collects each off-diagonal tile along its rows and
    # its columns.  -2·pooled is scaled once, exactly, as a power of two.
    left = -2.0 * pooled
    s_aa = np.zeros(n_permutations + 1)
    rowsum = np.zeros(size)
    blocks = [slice(lo, min(lo + _ROW_BLOCK, size)) for lo in range(0, size, _ROW_BLOCK)]
    for i, rows in enumerate(blocks):
        acc = np.zeros((rows.stop - rows.start, n_permutations + 1))
        for cols in blocks[i:]:
            # D[rows, cols] = sqrt(max(|a|²+|b|²-2a·b, 0))
            tile = left[rows] @ pooled[cols].T
            tile += sq[rows, None]
            tile += sq[None, cols]
            np.maximum(tile, 0.0, out=tile)
            np.sqrt(tile, out=tile)
            rowsum[rows] += tile.sum(axis=1)
            weight = 1.0
            if cols is not rows:
                rowsum[cols] += tile.sum(axis=0)
                weight = 2.0
            acc += tile @ (weight * member[cols])
        s_aa += np.einsum("ip,ip->p", member[rows], acc)
    total = float(rowsum.sum())
    col = sum(rowsum[rows] @ member[rows] for rows in blocks)
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
