import ctypes
import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dsterf

from freeze_bessel import _scipy, tridiagonal
from freeze_bessel.tridiagonal import _STERF_MIN_N, _solve_in_place, tridiagonal_eigenvalues


def _dense_eigs_desc(diag, off):
    # reference: full symmetric matrices through numpy's eigvalsh
    mats = np.array([np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in zip(diag, off)])
    return np.linalg.eigvalsh(mats)[:, ::-1]


def _one(diag, off):
    """Eigenvalues of a single tridiagonal, passed as a one-row batch."""
    return tridiagonal_eigenvalues(np.asarray([diag], dtype=float), np.asarray([off], dtype=float))[0]


def test_single_entry():
    assert np.array_equal(_one([4.5], []), np.array([4.5]))


def test_decoupled_blocks():
    # zero off-diagonal entries make the matrix block diagonal
    assert np.array_equal(_one([3.0, -1.0, 2.0], [0.0, 0.0]), [3.0, 2.0, -1.0])
    diag = np.arange(20.0)
    assert np.array_equal(_one(diag, np.zeros(19)), diag[::-1])


def test_known_two_by_two():
    # eigenvalues of [[a, b], [b, a]] are a + b and a - b, descending
    assert np.allclose(_one([1.0, 1.0], [2.0]), [3.0, -1.0], atol=1e-14)


def test_matches_dense_solver():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 11, 40):
        diag = rng.standard_normal((3, n)) * 3
        off = rng.standard_normal((3, n - 1))
        got = tridiagonal_eigenvalues(diag, off)
        want = _dense_eigs_desc(diag, off)
        scale = max(1.0, np.abs(want).max())
        assert np.allclose(got, want, atol=1e-11 * scale)


@pytest.mark.parametrize("n", [_STERF_MIN_N - 1, _STERF_MIN_N, 50, 200])
def test_tridiagonal_eigensolver_matches_dense_eigvalsh_bytes(n):
    rng = np.random.default_rng(n)
    rows = 64
    # beta-Hermite at beta = 2: N(0, 1) diagonal, chi_{2(n-i)} / sqrt(2) beside it
    hermite = (
        rng.standard_normal((rows, n)),
        np.sqrt(rng.chisquare(2.0 * np.arange(n - 1, 0, -1), size=(rows, n - 1))) / np.sqrt(2.0),
    )
    # beta-Laguerre B B^T with zero axis multiplicity at strength 1e4 (the
    # near-singular case the B(k1 = 0) and D samplers hit)
    d = np.sqrt(rng.chisquare(1.0 + 2e4 * np.arange(n - 1, -1, -1), size=(rows, n)))
    s = np.sqrt(rng.chisquare(2e4 * np.arange(n - 1, 0, -1), size=(rows, n - 1)))
    laguerre = (d**2, d[:, :-1] * s)
    laguerre[0][:, 1:] += s**2
    for diag, off in (hermite, laguerre):
        assert np.array_equal(tridiagonal_eigenvalues(diag, off), _dense_eigs_desc(diag, off))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 24))
def test_random_tridiagonal_agrees_with_lapack(seed, n):
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-10, 10, size=(2, n))
    off = rng.uniform(-5, 5, size=(2, n - 1))
    got = tridiagonal_eigenvalues(diag, off)
    want = _dense_eigs_desc(diag, off)
    scale = max(1.0, np.abs(want).max())
    assert np.allclose(got, want, atol=1e-10 * scale)


def test_eigenvalue_sum_and_square_sum_match_traces():
    rng = np.random.default_rng(3)
    for n in (8, 30):
        diag = rng.standard_normal(n)
        off = rng.standard_normal(n - 1)
        vals = _one(diag, off)
        assert np.sum(vals) == pytest.approx(np.sum(diag), rel=1e-12, abs=1e-12)
        assert np.sum(vals ** 2) == pytest.approx(np.sum(diag ** 2) + 2 * np.sum(off ** 2), rel=1e-12)


def test_shape_validation():
    for n in (2, 20):
        with pytest.raises(ValueError):
            tridiagonal_eigenvalues(np.ones((1, n)), np.ones((1, n)))
    assert tridiagonal_eigenvalues(np.empty((1, 0)), np.empty((1, 0))).shape == (1, 0)
    # dsterf reads raw rows, so every mismatch is refused before it runs
    for diag, off in (
        (np.ones((3, 50)), np.ones((3, 50))),
        (np.ones((3, 50)), np.ones((2, 49))),
        (np.ones((3, 50)), np.ones((3, 48))),
        (np.ones(50), np.ones(49)),
    ):
        with pytest.raises(ValueError):
            tridiagonal_eigenvalues(diag, off)


def _hermite_rows(rng, rows, n):
    return (
        rng.standard_normal((rows, n)),
        np.sqrt(rng.chisquare(2.0 * np.arange(n - 1, 0, -1), size=(rows, n - 1))) / np.sqrt(2.0),
    )


@pytest.mark.parametrize("n", [16, 50, 200])
@pytest.mark.parametrize("rows", [1, 3, 4097])
def test_threaded_solver_matches_f2py_dsterf_bytes(n, rows):
    # scipy's f2py dsterf wrapper, row by row, is the independent reference;
    # 1 and 3 rows leave threads idle, 4097 rows split unevenly.  The row pool
    # is the in-place solve's, which overwrites the copies it is handed
    diag, off = _hermite_rows(np.random.default_rng(1000 * n + rows), rows, n)
    want = np.empty((rows, n))
    for row in range(rows):
        lam, info = dsterf(diag[row], off[row])
        assert info == 0
        want[row] = lam[::-1]
    for threads in (1, 2, 3, None):
        assert _solve_in_place(diag.copy(), off.copy(), threads).tobytes() == want.tobytes()


def test_strided_inputs_give_the_same_bytes_and_stay_unmodified():
    rng = np.random.default_rng(5)
    diag, off = _hermite_rows(rng, 40, 30)
    plain = (diag.copy(), off.copy())
    want = tridiagonal_eigenvalues(diag, off)
    wide = np.zeros((40, 60))
    wide[:, ::2] = diag
    fortran = np.asfortranarray(off)
    before = (wide.copy(), fortran.copy())
    got = tridiagonal_eigenvalues(wide[:, ::2], fortran)
    assert got.tobytes() == want.tobytes()
    got = tridiagonal_eigenvalues(diag[::-1], off[::-1])
    assert got.tobytes() == want[::-1].tobytes()
    # plain C-ordered float64 rows are what dsterf would overwrite uncopied
    got = tridiagonal_eigenvalues(diag, off)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(wide, before[0]) and np.array_equal(fortran, before[1])
    assert diag.tobytes() == plain[0].tobytes() and off.tobytes() == plain[1].tobytes()
    assert np.array_equal(tridiagonal_eigenvalues(diag, off), want)


def test_in_place_solve_refuses_rows_dsterf_cannot_walk():
    d, e = np.ones((3, 20)), np.ones((3, 19))
    for bad in (
        (d.astype(np.float32), e),
        (d, np.asfortranarray(e)),
        (np.ones((3, 40))[:, ::2], e),
        (d, np.ones((3, 20))),
    ):
        with pytest.raises(ValueError, match="C-ordered float64"):
            _solve_in_place(*bad, None)


def test_more_threads_than_cores_with_fast_switching_keep_the_bytes():
    diag, off = _hermite_rows(np.random.default_rng(9), 1001, 20)
    want = _solve_in_place(diag.copy(), off.copy(), 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _solve_in_place(diag.copy(), off.copy(), 8).tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)


def _address(function) -> int:
    return ctypes.cast(function, ctypes.c_void_p).value


# Binds dsterf in a fresh process, then imports scipy.linalg, and prints
# whether the binding left scipy.linalg unloaded, whether the package's f2py
# dsterf gives the bound solver's bytes, and whether the package's
# cython_lapack capsule points at the bound function.
_LONE_EXTENSION = """
import ctypes, sys
import numpy as np
from freeze_bessel import _scipy, tridiagonal
bound = tridiagonal._dsterf()
print("scipy.linalg" not in sys.modules)
import scipy.linalg
from scipy.linalg import cython_lapack
d, e = np.linspace(-1.0, 2.0, 20), np.linspace(0.5, 1.5, 19)
lam, info = scipy.linalg.lapack.dsterf(d, e)
print(info == 0 and lam[::-1].tobytes() == tridiagonal.tridiagonal_eigenvalues([d], [e])[0].tobytes())
again = _scipy._capsule_function(cython_lapack.__pyx_capi__["dsterf"], type(bound))
print(ctypes.cast(bound, ctypes.c_void_p).value == ctypes.cast(again, ctypes.c_void_p).value)
"""


def test_dsterf_binding_loads_the_extension_alone():
    # binding dsterf used to import all of scipy.linalg (numpy.f2py,
    # numpy.testing and numpy.ma with it); a later import of the package
    # must still work and export the same function
    src = Path(tridiagonal.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LONE_EXTENSION], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert out == ["True", "True", "True"]


def test_install_without_the_extension_file_binds_through_scipy_linalg(monkeypatch):
    # where PathFinder finds no cython_lapack file (a zipped or frozen
    # install), the binding imports the module through scipy.linalg
    import scipy.linalg.cython_lapack  # noqa: F401  (in sys.modules, so the fallback import needs no finder)

    find_spec = importlib.machinery.PathFinder.find_spec
    refused = []

    def no_extension(name, path=None, target=None):
        if name == "scipy.linalg.cython_lapack":
            refused.append(name)
            return None
        return find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_extension)
    _scipy._cython_lapack.cache_clear()  # the module is loaded once per process; load it again
    fallback = tridiagonal._dsterf.__wrapped__()
    monkeypatch.undo()
    assert refused == ["scipy.linalg.cython_lapack"]
    assert _address(fallback) == _address(tridiagonal._dsterf())
