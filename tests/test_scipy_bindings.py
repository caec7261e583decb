import importlib.machinery
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from freeze_bessel import _scipy


def test_kolmogorov_port_gives_scipys_bytes():
    rng = np.random.default_rng(39)
    cut = np.pi / np.sqrt(746 * 8)  # at and below it the law is 1 outright
    x = np.concatenate([
        np.linspace(0.0, 6.0, 300_000),
        rng.uniform(0.03, 0.05, 200_000),  # the cut, and the branch where exp(-pi^2 / (8 x^2)) underflows
        rng.uniform(cut, 0.0407, 50_000),
        rng.uniform(0.8, 0.84, 200_000),  # both sides of the 0.82 cutover
        np.nextafter(0.82, np.array([-np.inf, np.inf])),
        np.logspace(-323, 3, 150_000),
        rng.uniform(0.0, 40.0, 100_000),
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1.0, 0.82, cut, np.nextafter(cut, 1.0)],
    ])
    assert x.size >= 1_000_000
    port = np.array([_scipy._kolmogorov(v) for v in x.tolist()])
    assert port.tobytes() == scipy.special.kolmogorov(x).tobytes()


# Loads the special ufuncs in a fresh process, then imports scipy.special,
# and prints whether the load left scipy.special unloaded, whether ndtr and
# gammaincc gave scipy.special's bytes on 10^6 points each, and whether they
# are the objects scipy.special exports.
_LONE_UFUNCS = """
import sys
import numpy as np
from freeze_bessel import _scipy
ufuncs = _scipy._special_ufuncs()
print("scipy.special" not in sys.modules)
rng = np.random.default_rng(39)
x = np.concatenate([np.linspace(-40.0, 40.0, 500_000), rng.standard_normal(500_000) * 5])
a, z = rng.uniform(0.0, 60.0, 1_000_000), rng.exponential(30.0, 1_000_000)
a[:4], z[:4] = (0.5, 1.0, 30.0, 0.5), (0.0, 0.0, np.inf, 1e-300)
got = ufuncs.ndtr(x).tobytes(), ufuncs.gammaincc(a, z).tobytes()
import scipy.special
print(got == (scipy.special.ndtr(x).tobytes(), scipy.special.gammaincc(a, z).tobytes()))
print(ufuncs.ndtr is scipy.special.ndtr and ufuncs.gammaincc is scipy.special.gammaincc)
"""


def test_special_ufuncs_load_alone_and_give_scipy_specials_bytes():
    src = Path(_scipy.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LONE_UFUNCS], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    assert out == ["True", "True", "True"]


def test_install_without_the_extension_file_loads_through_scipy_special(monkeypatch):
    # where PathFinder finds no _special_ufuncs file (a zipped or frozen
    # install), the loader imports the module through scipy.special, which
    # the import above has loaded, so the fallback import needs no finder
    find_spec = importlib.machinery.PathFinder.find_spec
    refused = []

    def no_extension(name, path=None, target=None):
        if name == "scipy.special._special_ufuncs":
            refused.append(name)
            return None
        return find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_extension)
    fallback = _scipy._extension("scipy.special", "_special_ufuncs")
    monkeypatch.undo()
    assert refused == ["scipy.special._special_ufuncs"]
    assert fallback.ndtr is scipy.special.ndtr is _scipy._special_ufuncs().ndtr


def test_scipy_without_the_extension_gives_the_ufuncs_through_scipy_special(monkeypatch):
    # an older scipy has no _special_ufuncs module: neither PathFinder nor
    # the fallback import finds one
    find_spec = importlib.machinery.PathFinder.find_spec

    def no_extension(name, path=None, target=None):
        return None if name == "scipy.special._special_ufuncs" else find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_extension)
    monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs", raising=False)
    with pytest.raises(ModuleNotFoundError):
        _scipy._extension("scipy.special", "_special_ufuncs")
    assert _scipy._special_ufuncs.__wrapped__() is scipy.special


@pytest.mark.parametrize("present", [(), ("ndtr",), ("gammaincc",)])
def test_an_extension_without_both_ufuncs_gives_them_through_scipy_special(monkeypatch, present):
    # a scipy whose _special_ufuncs defines other ufuncs than these two
    stub = types.ModuleType("scipy.special._special_ufuncs")
    for name in present:
        setattr(stub, name, getattr(scipy.special, name))
    monkeypatch.setattr(_scipy, "_extension", lambda package, name: stub)
    assert _scipy._special_ufuncs.__wrapped__() is scipy.special


def test_the_lapack_bindings_load_cython_lapack_once(monkeypatch):
    extension, loads = _scipy._extension, []

    def counted(package, name):
        loads.append(f"{package}.{name}")
        return extension(package, name)

    monkeypatch.setattr(_scipy, "_extension", counted)
    _scipy._cython_lapack.cache_clear()
    dsterf, dtrtrs = _scipy._dsterf.__wrapped__(), _scipy._dtrtrs.__wrapped__()
    assert loads == ["scipy.linalg.cython_lapack"]
    assert dsterf is not None and dtrtrs is not None


def _lower_factor(n: int, rng) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return np.linalg.cholesky(m @ m.T + n * np.eye(n))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200])
def test_triangular_solve_gives_solve_triangulars_bytes(n):
    rng = np.random.default_rng(n)
    chol = _lower_factor(n, rng)
    for b in (np.eye(n), rng.standard_normal((20_000, n)).T, rng.standard_normal(n)):
        got = _scipy._solve_lower(chol, b)
        want = scipy.linalg.solve_triangular(chol, b, lower=True)
        assert got.shape == want.shape and got.flags.f_contiguous == want.flags.f_contiguous
        assert got.tobytes(order="A") == want.tobytes(order="A")


def test_triangular_solve_refuses_non_finite_input_and_a_singular_factor():
    chol = _lower_factor(4, np.random.default_rng(5))
    b = np.ones((4, 3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _scipy._solve_lower(np.where(np.eye(4, dtype=bool), bad, chol), b)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _scipy._solve_lower(chol, np.full((4, 3), bad))
    singular = chol.copy()
    singular[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        _scipy._solve_lower(singular, b)
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        scipy.linalg.solve_triangular(singular, b, lower=True)
