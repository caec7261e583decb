"""Eigenvalues of real symmetric tridiagonal matrices, the package's one solver.

It serves the exact samplers (batches of beta-Hermite and beta-Laguerre
matrices) and the freezing targets (one-row batches of the recurrence Jacobi
matrices whose spectra are the Hermite and Laguerre zeros).

From n = 12 up, every row goes through LAPACK ``dsterf``, called through
ctypes (``_scipy._dsterf``).  It is bound on first use, once per process, by
the calling thread before any row pool starts.  A ctypes call releases the
GIL, so contiguous chunks of rows run on a thread pool; each row meets the
same routine however the rows are chunked, so the bytes do not depend on the
thread count.

``dsterf`` overwrites its rows.  The public ``tridiagonal_eigenvalues``
solves on C-ordered float64 copies of its inputs; the samplers build their
model arrays themselves and hand them to ``_solve_in_place``, which saves
those copies.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._scipy import _dsterf

__all__ = ["tridiagonal_eigenvalues"]

# Smallest n at which the per-matrix dsterf loop beats the batched dense
# eigvalsh.  Medians of 7 runs of 20 000 rows on one BLAS thread of a
# 2-core x86_64 container, dense then dsterf: 90.5 and 95.2 ms at n = 8,
# 123.4 and 123.5 ms at n = 10, 168.8 and 158.8 ms at n = 12, 246.1 and
# 214.1 ms at n = 15.  Both paths give the same bytes, but the dense
# (rows, n, n) matrices are n-fold the output while dsterf works in O(n)
# per row: sample_exact's peak over its output is 14.9x dense and 2.1x
# dsterf at A n = 12.  So n <= 10, where dense is no slower, stays dense.
_STERF_MIN_N = 12


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _sterf_rows(dsterf, d: np.ndarray, e: np.ndarray, start: int, stop: int) -> int:
    """Overwrite rows ``start:stop`` of the C-contiguous float64 ``d`` (rows, n)
    with their ascending eigenvalues (``e`` (rows, n-1) is destroyed), calling
    the bound ``dsterf`` once per row.

    Returns 0, or the ``info`` of the first row that ``dsterf`` failed on.
    """
    n = d.shape[1]
    n_c, info = ctypes.c_int(n), ctypes.c_int(0)
    d_addr, e_addr = d.ctypes.data, e.ctypes.data
    for row in range(start, stop):
        dsterf(n_c, d_addr + 8 * n * row, e_addr + 8 * (n - 1) * row, info)
        if info.value:
            return info.value
    return 0


def _solve_in_place(d: np.ndarray, e: np.ndarray, threads: int | None) -> np.ndarray:
    """Descending eigenvalues of the tridiagonals with rows ``d`` (size, n) and
    ``e`` (size, n-1), C-ordered float64 arrays that the caller hands over.

    From ``_STERF_MIN_N`` up the eigenvalues overwrite ``d`` and come back as
    its reversed view, and ``e`` is destroyed; below it the batched dense
    ``eigvalsh`` returns a new array.  ``threads`` caps the row pool, None
    meaning every usable core; it is the caller's to check.  The layout is
    checked here, as ``dsterf`` writes through raw row addresses.
    """
    size, n = d.shape
    if not (d.dtype == e.dtype == np.float64 and d.flags.c_contiguous and e.flags.c_contiguous
            and e.shape == (size, max(n - 1, 0))):
        raise ValueError("the in-place solve takes C-ordered float64 rows (size, n) and (size, n-1)")
    if n < _STERF_MIN_N:
        mats = np.zeros((size, n, n))
        idx = np.arange(n)
        mats[:, idx, idx] = d
        j = idx[:-1]
        mats[:, j, j + 1] = e
        mats[:, j + 1, j] = e
        return np.linalg.eigvalsh(mats)[:, ::-1]
    dsterf = _dsterf()  # bound here, in the calling thread, before any pool starts
    workers = max(1, min(_usable_cores() if threads is None else threads, size))
    bounds = [size * i // workers for i in range(workers + 1)]
    chunks = list(zip(bounds[:-1], bounds[1:]))
    if workers == 1:
        infos = [_sterf_rows(dsterf, d, e, *chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            infos = list(pool.map(lambda chunk: _sterf_rows(dsterf, d, e, *chunk), chunks))
    info = next((i for i in infos if i), 0)
    if info:
        raise RuntimeError(f"LAPACK dsterf failed with info={info} on a {n}x{n} tridiagonal")
    return d[:, ::-1]


def tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the symmetric tridiagonals with rows ``diag``
    (size, n) on the diagonal and ``off`` (size, n-1) beside it.

    numpy's ``eigvalsh`` (LAPACK ``dsyevd``) leaves an already tridiagonal
    matrix as it is and hands its diagonals to ``dsterf``, so calling
    ``dsterf`` directly gives the same bytes without the (size, n, n) matrices.
    The ``dsterf`` path spreads its rows over the usable cores, one row per
    thread at most, so the freezing targets' one-row solves start no pool.
    The inputs are not modified: they are copied to C-ordered float64 arrays,
    which the in-place solve then overwrites (the samplers hand that solve
    arrays they own and skip the copy).  Raises ``ValueError`` on mismatched
    shapes, and ``RuntimeError`` if ``dsterf`` reports a failure.
    """
    diag = np.asarray(diag)
    off = np.asarray(off)
    if diag.ndim != 2:
        raise ValueError(f"diag must be (size, n), got shape {diag.shape}")
    size, n = diag.shape
    if off.shape != (size, max(n - 1, 0)):
        raise ValueError(f"off must be ({size}, {max(n - 1, 0)}) beside a {diag.shape} diag, got {off.shape}")
    d = np.array(diag, dtype=np.float64, order="C")
    e = np.array(off, dtype=np.float64, order="C")
    return _solve_in_place(d, e, None)
