"""The benchmark still finds every function it wraps and every keyword it passes.

``perfbench/tracing.py`` patches each entry of its ``TRACED`` table into the
module namespaces its callers look it up in, and ``perfbench/workloads.py``
and ``perfbench/worker.py`` call the package with keyword arguments.  A
rename or deletion in the package that drops one of those names would
otherwise surface only when the benchmark run is started.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import freeze_bessel
import freeze_bessel.cli  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules():
    return [m for key, m in sys.modules.items() if key == "freeze_bessel" or key.startswith("freeze_bessel.")]


def test_tracer_patches_every_traced_function_and_restores_it():
    tracing = _load_tracing()
    names = {function for _, function, _, _ in tracing.TRACED}
    before = {(ns.__name__, name): ns.__dict__.get(name) for ns in _package_modules() for name in names}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, function, callers, _ in tracing.TRACED:
            original = before[(f"freeze_bessel.{module}", function)]
            namespaces = (
                _package_modules() if callers is None
                else [importlib.import_module(f"freeze_bessel.{c}") for c in callers]
            )
            wrapped = [
                ns for ns in namespaces
                if getattr(ns.__dict__.get(function), "__wrapped__", None) is original
            ]
            assert wrapped, f"{module}.{function} was patched into no namespace"
    finally:
        tracer.uninstall()
    after = {(ns.__name__, name): ns.__dict__.get(name) for ns in _package_modules() for name in names}
    assert all(after[key] is value for key, value in before.items())


def _package_names(tree: ast.Module) -> dict:
    """Each name the file binds to a package object: ``from freeze_bessel import
    m``, ``x = import_package()`` (the worker's handle on the package) and
    ``x = <name>.<attribute>...`` of a name bound so; scopes are not told apart."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "freeze_bessel":
            for alias in node.names:
                names[alias.asname or alias.name] = importlib.import_module(f"freeze_bessel.{alias.name}")
    assigns = [node for node in ast.walk(tree) if isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.targets[0], ast.Name)]
    for _ in assigns:  # each pass binds at least one more name, or nothing changes
        for node in assigns:
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "import_package":
                names[node.targets[0].id] = freeze_bessel
            elif (obj := _resolve(value, names)) is not None:
                names[node.targets[0].id] = obj
    return names


def _resolve(expr, names):
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _resolve(expr.value, names)
        return None if base is None else getattr(base, expr.attr, None)
    return None


def test_benchmark_passes_only_keywords_the_package_takes():
    checked, unknown = set(), []
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "worker.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _package_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.keywords:
                continue
            target = _resolve(node.func, names)
            if not callable(target) or not getattr(target, "__module__", "").startswith("freeze_bessel"):
                continue
            params = inspect.signature(target).parameters
            if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
                continue
            checked.add(target.__qualname__)
            unknown += [f"{path.name}:{node.lineno} {target.__qualname__}({kw.arg}=...)"
                        for kw in node.keywords if kw.arg is not None and kw.arg not in params]
    assert not unknown, unknown
    # the resolver still reaches the calls of both files
    assert {"sample_exact", "lln_check", "two_sample_agreement", "SdeConfig", "FreezingRegime.from_theorem"} <= checked
