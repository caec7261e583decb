"""The scipy routines the package calls, bound without a scipy subpackage.

The package needs five routines of ``scipy.special`` and ``scipy.linalg``.
Importing either package costs a process about 25 MB and 0.15 s over numpy
(its ``__init__`` brings ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``
along), so each routine comes from the one extension module that defines it,
loaded by ``_extension`` without running the package ``__init__``:

- LAPACK ``dsterf`` (the eigensolve of ``tridiagonal``) and ``dtrtrs`` (the
  triangular solve of ``stat_tests.mahalanobis_sq`` and
  ``gaussian.covariance``) are called through ctypes on the function
  pointers that the ``scipy.linalg.cython_lapack`` extension exports (one
  module, about 2 MB);
- ``ndtr`` and ``gammaincc`` (the normal and chi-square CDFs) are the ufuncs
  of the ``scipy.special._special_ufuncs`` extension (2.4 MB), the objects
  that ``scipy.special`` exports; a scipy whose extension lacks them (or
  that has none) gives them through ``scipy.special``;
- the Kolmogorov survival function, evaluated once per KS test on a scalar,
  is a port of scipy's routine, which lives in the large ``_ufuncs``
  extension.

This is the one module that knows these internals of scipy.  Each binding is
made on first use, once per process.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import importlib.machinery
import importlib.util
import math

import numpy as np

_INT_P = ctypes.POINTER(ctypes.c_int)


def _extension(package: str, name: str):
    """The extension module ``package.name``, loaded without running ``package/__init__.py``.

    Where importlib's ``PathFinder`` finds no file for it (a zipped or frozen
    install), the module is imported the usual way, through its package.
    """
    search = importlib.util.find_spec(package).submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(f"{package}.{name}", search)
    if spec is None:
        return importlib.import_module(f"{package}.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _capsule_function(capsule, prototype):
    """The C function that a Cython ``__pyx_capi__`` capsule points to."""
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    return prototype(get_pointer(capsule, get_name(capsule)))


@functools.cache
def _cython_lapack():
    """The ``scipy.linalg.cython_lapack`` extension, loaded once for every LAPACK binding."""
    return _extension("scipy.linalg", "cython_lapack")


def _lapack_function(name: str, prototype):
    return _capsule_function(_cython_lapack().__pyx_capi__[name], prototype)


@functools.cache
def _dsterf():
    """LAPACK ``dsterf(n, d, e, info)``, d and e raw addresses of float64 rows.

    ``tridiagonal._solve_in_place`` makes the first call in its own thread
    before it starts a row pool, so no worker thread imports.
    """
    return _lapack_function("dsterf", ctypes.CFUNCTYPE(None, _INT_P, ctypes.c_void_p, ctypes.c_void_p, _INT_P))


@functools.cache
def _dtrtrs():
    """LAPACK ``dtrtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info)``, a and b raw addresses."""
    char_p, void_p = ctypes.c_char_p, ctypes.c_void_p
    return _lapack_function(
        "dtrtrs",
        ctypes.CFUNCTYPE(None, char_p, char_p, char_p, _INT_P, _INT_P, void_p, _INT_P, void_p, _INT_P, _INT_P),
    )


def _solve_lower(chol, b) -> np.ndarray:
    """``L^{-1} b`` for the lower-triangular ``chol`` L and a vector or (n, columns) ``b``.

    The bytes of ``scipy.linalg.solve_triangular(chol, b, lower=True)`` for a
    C-ordered L: LAPACK ``dtrtrs`` solves the transposed system, 'U' and 'T'
    on L's rows read as a Fortran-ordered upper factor, on a Fortran-ordered
    copy of ``b``, which it returns.  Raises ``ValueError`` on NaN or inf in
    either input and ``LinAlgError`` on a zero on L's diagonal.
    """
    a = np.ascontiguousarray(chol, dtype=np.float64)
    x = np.array(b, dtype=np.float64, order="F")  # dtrtrs overwrites its b with the solution
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise ValueError("array must not contain infs or NaNs")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or x.ndim not in (1, 2) or x.shape[0] != a.shape[0]:
        raise ValueError(f"expected a square factor and a right-hand side of as many rows, got {a.shape} and {x.shape}")
    n = a.shape[0]
    if x.size == 0:
        return x
    lead, info = ctypes.c_int(max(n, 1)), ctypes.c_int(0)
    nrhs = ctypes.c_int(1 if x.ndim == 1 else x.shape[1])
    _dtrtrs()(b"U", b"T", b"N", ctypes.c_int(n), nrhs, a.ctypes.data, lead, x.ctypes.data, lead, info)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info.value - 1}")
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}-th argument of internal trtrs")
    return x


@functools.cache
def _special_ufuncs():
    """The module whose ``ndtr`` and ``gammaincc`` the package calls.

    The ``scipy.special._special_ufuncs`` extension where it defines both, as
    on scipy 1.17; on a scipy that has no such extension, or whose extension
    lacks either ufunc (``scipy.special`` then takes them from elsewhere),
    ``scipy.special`` itself, at the cost of loading the package.
    """
    try:
        module = _extension("scipy.special", "_special_ufuncs")
    except ImportError:
        module = None
    if all(hasattr(module, name) for name in ("ndtr", "gammaincc")):
        return module
    return importlib.import_module("scipy.special")


def _kolmogorov(x: float) -> float:
    """Survival function of the Kolmogorov distribution at ``x``.

    A port of ``scipy.special.kolmogorov`` that gives its bytes: the same
    branches, cutover and order of operations, on the same libm.
    """
    if math.isnan(x):
        return math.nan
    if x <= math.pi / math.sqrt(746 * 8):  # x <= 0 included: up to this cut the CDF underflows to 0
        return 1.0
    if x <= 0.82:
        # 1 - sqrt(2 pi) / x * sum_j u^((2j-1)^2) with u = exp(-pi^2 / (8 x^2)): four terms
        w = math.sqrt(2 * math.pi) / x
        log_u8 = -math.pi * math.pi / (x * x)
        u = math.exp(log_u8 / 8)
        if u == 0:
            p = math.exp(log_u8 / 8 + math.log(w))
        else:
            u8 = math.exp(log_u8)
            p = 1 + pow(u8, 3)
            p = 1 + u8 * u8 * p
            p = 1 + u8 * p
            p = w * u * p
        sf = 1 - p
    else:
        # 2 * sum_j (-1)^(j-1) v^(j^2) with v = exp(-2 x^2): 2 v (1 - v^3 + v^8 - v^15)
        v = math.exp(-2 * x * x)
        v3 = pow(v, 3)
        p = 1 - v3 * v3 * v
        p = 1 - v3 * (v * v) * p
        p = 1 - v3 * p
        sf = 2 * v * p
    return min(max(sf, 0.0), 1.0)
