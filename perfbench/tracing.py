"""Spans around the calls the benchmark makes into each module of freeze_bessel.

The tracer replaces a function by a recording wrapper in the module
namespaces its callers look it up in (for example
``freeze_bessel.sde.drift_batch`` for the SDE step loop, or
``freeze_bessel.verify.ks_test_cdf`` for the battery), so nothing under
``src/`` changes.  Each call leaves a span
(id, name, start, end, parent span, round id) in memory; counts that belong to
a layer, such as rows returned or bytes written, are taken from the same
calls.  ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _sample_exact(count, args, kwargs, batch):
    count("sampling.sample_exact.rows", batch.count)


def _sample_metropolis(count, args, kwargs, batch):
    d = batch.diagnostics
    count("sampling.sample_metropolis.acceptance_rate", d.acceptance_rate)
    count("sampling.sample_metropolis.thin", d.thin)
    count("sampling.sample_metropolis.ess_ratio", d.ess / batch.count)


def _simulate_endpoints(count, args, kwargs, batch):
    cfg = args[0] if args else kwargs["cfg"]
    count("sde.simulate_endpoints.path_steps", cfg.paths * cfg.resolved_steps)
    count("sde.simulate_endpoints.paths", cfg.paths)
    count("sde.simulate_endpoints.endpoints", batch.count)


def _battery(count, args, kwargs, result):
    _verdicts(count, [result[1]])


def _report(count, args, kwargs, report):
    _verdicts(count, [report.passed])


def _reports(count, args, kwargs, reports):
    _verdicts(count, [r.passed for r in reports])


def _verdicts(count, passed):
    count("verify.verdicts", len(passed))
    count("verify.verdicts_passed", sum(bool(p) for p in passed))


def _write_text(count, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    count("manifest.write_text.bytes", len(text.encode("utf-8")))


# (module, function, caller modules or None for every namespace holding it, count hook)
TRACED = (
    ("sampling", "sample_exact", None, _sample_exact),
    ("sampling", "sample_tridiag_a", None, None),
    ("sampling", "sample_tridiag_b", None, None),
    ("sampling", "sample_metropolis", None, _sample_metropolis),
    ("core", "log_weight_batch", ("sampling",), None),
    ("sde", "simulate_endpoints", None, _simulate_endpoints),
    ("sde", "drift_batch", ("sde",), None),
    ("core", "project_batch", ("sde",), None),
    ("stat_tests", "ks_test_cdf", None, None),
    ("stat_tests", "mahalanobis_sq", None, None),
    ("stat_tests", "ks_test_two_sample", None, None),
    ("stat_tests", "energy_distance_test", None, None),
    ("verify", "gaussian_battery", None, _battery),
    ("verify", "lln_check", None, _report),
    ("verify", "two_sample_agreement", None, _report),
    ("verify", "run_suite", None, _reports),
    ("equilibria", "freezing_target", None, None),
    ("equilibria", "stationarity_residual", None, None),
    ("equilibria", "potential_identity_check", None, None),
    ("tridiagonal", "tridiagonal_eigenvalues", ("equilibria",), None),
    ("special", "log_gamma", ("gaussian",), None),
    ("gaussian", "determinant_identity", None, None),
    ("gaussian", "log_norm_constant", None, None),
    ("gaussian", "proof_constant_limit", None, None),
    ("quadrature", "chamber_weight_integral", None, None),
    ("manifest", "batch_csv_text", None, None),
    ("manifest", "batch_json_text", None, None),
    ("manifest", "reports_json_text", None, None),
    ("manifest", "read_run_file", None, None),
    ("manifest", "write_text", None, _write_text),
    ("cli", "main", None, None),
)

MODULES = tuple(dict.fromkeys(module for module, *_ in TRACED))
COLD = "cold"


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent id, round id]
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # round id -> name -> value
        self._stack: list[int] = []
        self._round = None
        self._round_span: list | None = None
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self._round]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts[self._round][name] += value

    def begin_round(self, round_id) -> None:
        self._round = round_id
        self._round_span = self._open("round")

    def end_round(self) -> float:
        self._close(self._round_span)
        self._round = None
        return self._round_span[3] - self._round_span[2]

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer.count, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        loaded = [m for key, m in sys.modules.items() if key == "freeze_bessel" or key.startswith("freeze_bessel.")]
        for module, function, callers, hook in TRACED:
            original = getattr(importlib.import_module(f"freeze_bessel.{module}"), function)
            wrapper = self._wrap(f"{module}.{function}", original, hook)
            if callers is None:
                namespaces = loaded
            else:
                namespaces = [importlib.import_module(f"freeze_bessel.{c}") for c in callers]
            holders = [ns for ns in namespaces if ns.__dict__.get(function) is original]
            if not holders:
                raise RuntimeError(f"no caller namespace holds {module}.{function}")
            for ns in holders:
                setattr(ns, function, wrapper)
                self._patches.append((ns, function, original))

    def uninstall(self) -> None:
        for ns, function, original in reversed(self._patches):
            setattr(ns, function, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict:
        """Per round id, per span name: [calls, self seconds]."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for sid, name, start, end, _, rnd in self.spans:
            entry = out[rnd][name]
            entry[0] += 1
            entry[1] += (end - start) - child[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "round": rnd}) + "\n")


def per_layer_metrics(tracer: Tracer, timed_rounds: list) -> dict:
    """Per-op means over the traced timed rounds, and the cold round by module."""
    times = tracer.self_times()
    ops = max(len(timed_rounds), 1)
    metrics: dict = {}
    for module, function, _, _ in TRACED:
        name = f"{module}.{function}"
        calls = sum(times[r][name][0] for r in timed_rounds if name in times[r])
        self_s = sum(times[r][name][1] for r in timed_rounds if name in times[r])
        metrics[f"{name}.calls"] = (calls / ops, "count")
        metrics[f"{name}.self_s"] = (self_s / ops, "s")

    totals: dict = defaultdict(float)
    for r in timed_rounds:
        for key, value in tracer.counts[r].items():
            totals[key] += value

    def ratio(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    chain_calls = metrics["sampling.sample_metropolis.calls"][0] * ops
    metrics["sampling.sample_exact.rows"] = (totals["sampling.sample_exact.rows"] / ops, "count")
    for stat in ("acceptance_rate", "thin", "ess_ratio"):
        key = f"sampling.sample_metropolis.{stat}"
        metrics[key] = (totals[key] / chain_calls if chain_calls else 0.0, "count" if stat == "thin" else "ratio")
    metrics["sde.simulate_endpoints.path_steps"] = (totals["sde.simulate_endpoints.path_steps"] / ops, "count")
    metrics["sde.simulate_endpoints.kept_ratio"] = (
        ratio("sde.simulate_endpoints.endpoints", "sde.simulate_endpoints.paths"), "ratio")
    metrics["verify.verdicts"] = (totals["verify.verdicts"] / ops, "count")
    metrics["verify.verdict_pass_ratio"] = (ratio("verify.verdicts_passed", "verify.verdicts"), "ratio")
    metrics["manifest.write_text.bytes"] = (totals["manifest.write_text.bytes"] / ops, "count")

    cold = times.get(COLD, {})
    metrics["cold.round_s"] = (sum(v[1] for v in cold.values()), "s")
    for module in MODULES:
        metrics[f"cold.{module}.self_s"] = (
            sum(v[1] for name, v in cold.items() if name.startswith(module + ".")), "s")
    return metrics
