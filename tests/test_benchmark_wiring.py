"""The per-layer benchmark tracer still finds every function it wraps.

``perfbench/tracing.py`` patches each entry of its ``TRACED`` table into the
module namespaces its callers look it up in.  A rename or deletion in the
package that drops one of those names would otherwise surface only when the
traced benchmark run is started.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import freeze_bessel.cli  # noqa: F401  (loads every module the tracer patches)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
