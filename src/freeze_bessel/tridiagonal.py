"""Eigenvalues of real symmetric tridiagonal matrices, the package's one solver.

It serves the exact samplers (batches of beta-Hermite and beta-Laguerre
matrices) and the freezing targets (one-row batches of the recurrence Jacobi
matrices whose spectra are the Hermite and Laguerre zeros).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dsterf

__all__ = ["tridiagonal_eigenvalues"]

# Smallest n at which the per-matrix dsterf loop beats the batched dense
# eigvalsh (single thread, 4096 rows: equal within noise at n = 14-16, dense
# 1.25x faster at n = 8, dsterf 1.8x faster at n = 50).
_STERF_MIN_N = 16


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the symmetric tridiagonals with rows ``diag``
    (size, n) on the diagonal and ``off`` (size, n-1) beside it.

    numpy's ``eigvalsh`` (LAPACK ``dsyevd``) leaves an already tridiagonal
    matrix as it is and hands its diagonals to ``dsterf``, so calling
    ``dsterf`` directly gives the same bytes without the (size, n, n) matrices.
    Raises ``RuntimeError`` if ``dsterf`` reports a failure.
    """
    size, n = diag.shape
    if n < _STERF_MIN_N:
        mats = np.zeros((size, n, n))
        idx = np.arange(n)
        mats[:, idx, idx] = diag
        j = idx[:-1]
        mats[:, j, j + 1] = off
        mats[:, j + 1, j] = off
        vals = np.linalg.eigvalsh(mats)
    else:
        vals = np.empty((size, n))
        for row in range(size):
            lam, info = dsterf(diag[row], off[row])
            if info != 0:
                raise RuntimeError(f"LAPACK dsterf failed with info={info} on a {n}x{n} tridiagonal")
            vals[row] = lam
    return vals[:, ::-1]
