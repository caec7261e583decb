"""The public surface resolves and is used, and no source module keeps an unused import.

The checks use the standard library only (``ast``, ``importlib`` and ``inspect``), so
they run wherever tier-1 runs, with no linter installed.  An import that a
module keeps on purpose for another namespace carries ``# noqa: F401`` on its
line.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freeze_bessel
from freeze_bessel import cli

SRC = Path(freeze_bessel.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"freeze_bessel.{module}" if module else "freeze_bessel")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names what the module lacks: {missing}"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {bound}")
    return unused


def test_no_module_level_import_is_unused():
    unused = [entry for path in sorted(SRC.glob("*.py")) for entry in _unused_imports(path)]
    assert not unused, f"unused module-level imports: {unused}"


def _names_read(tree: ast.AST) -> set[str]:
    """Every ast.Name id and ast.Attribute attr, except those inside the class statement of that name."""
    read = set()

    def visit(node, inside):
        if isinstance(node, ast.ClassDef):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return read


def test_every_exported_class_is_used_in_the_package():
    # a public class that no module constructs, annotates or reads is a record
    # that nothing takes; __init__ only re-exports, so it does not count
    read = set().union(*(_names_read(ast.parse(SRC.joinpath(f"{m}.py").read_text(encoding="utf-8")))
                         for m in MODULES))
    unused = []
    for m in MODULES:
        mod = importlib.import_module(f"freeze_bessel.{m}")
        unused += [f"{m}.{name}" for name in getattr(mod, "__all__", ())
                   if inspect.isclass(getattr(mod, name)) and name not in read]
    assert not unused, f"exported classes no module uses: {unused}"


def _imports_report(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".report", "freeze_bessel.report") or (
                module in (".", "freeze_bessel") and any(alias.name == "report" for alias in node.names)
            ):
                return True
        elif isinstance(node, ast.Import) and any(alias.name == "freeze_bessel.report" for alias in node.names):
            return True
    return False


def test_only_verify_builds_reports():
    # the per-point checkers of gaussian and equilibria return numbers; verify
    # decides every verdict, manifest writes reports, and __init__ exports the class
    importers = sorted(path.stem for path in SRC.glob("*.py") if _imports_report(path))
    assert importers == ["__init__", "manifest", "verify"]


def test_console_script_is_cli_main():
    # tier-1 runs from the source tree; CI then installs the package once and
    # runs the console script (tier1.yml), which this check keeps pointed at main
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = scripts["freeze-bessel"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def _is_dataclass(decorator: ast.expr) -> bool:
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(node, "id", None) or getattr(node, "attr", None)) == "dataclass"


def _settable_values(tree: ast.AST) -> int:
    """Parameters with a default of every def, plus fields with a default (or factory) of every dataclass."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_settable_values_census():
    # every default is a value a caller may set, which tests and the benchmark
    # must then cover; a new option or a retired one is an edit of this number
    total = sum(_settable_values(ast.parse(path.read_text(encoding="utf-8"))) for path in SRC.glob("*.py"))
    assert total == 85


# (command, whether scipy.linalg and scipy.special may be loaded after it);
# None is the bare import of freeze_bessel.cli
_SCIPY_LOADS = [
    (None, {"scipy.linalg": False, "scipy.special": False}),
    (["sample", "--system", "A", "--n", "3", "--k", "5", "--count", "100"],
     {"scipy.linalg": False, "scipy.special": False}),
    (["sde", "--system", "B", "--n", "2", "--k1", "1", "--k2", "1", "--x0", "1,0.5", "--steps", "5", "--paths", "20"],
     {"scipy.linalg": False, "scipy.special": False}),
    # dsterf (n >= 12) is bound from the cython_lapack extension alone, without scipy.linalg
    (["verify", "--suite", "identities", "--quick"], {"scipy.linalg": False, "scipy.special": False}),
    (["sample", "--system", "A", "--n", "20", "--k", "5", "--count", "10"],
     {"scipy.linalg": False, "scipy.special": False}),
    (["target", "--system", "D", "--n", "300"], {"scipy.linalg": False, "scipy.special": False}),
    # the KS law, both CDFs, the Mahalanobis solve and the SDE, then covariance:
    # each comes from its one scipy extension module (freeze_bessel._scipy)
    (["verify", "--suite", "clt-b1", "--quick", "--seed", "0"], {"scipy.linalg": False, "scipy.special": False}),
    (["sigma", "--system", "A", "--n", "3"], {"scipy.linalg": False, "scipy.special": False}),
]
_LOADED_AFTER = """
import contextlib, io, sys
from freeze_bessel.cli import main
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(" ".join(sorted(sys.modules)))
"""


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # each of the three heavy subpackages adds 15-38 MB of resident memory to
    # every command.  scipy.linalg and scipy.special bring numpy.f2py,
    # numpy.testing and numpy.ma with them (about 30 MB and 0.2 s at
    # import), so the package loads only the extension modules it calls
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    for argv, expected in _SCIPY_LOADS:
        loaded = subprocess.run(
            [sys.executable, "-c", _LOADED_AFTER, *(argv or [])],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        heavy = [m for m in loaded if ".".join(m.split(".")[:2]) in ("scipy.integrate", "scipy.stats", "scipy.optimize")]
        case = argv or "import freeze_bessel.cli"
        assert not heavy, (case, heavy)
        assert {name: name in loaded for name in expected} == expected, case
