"""The four benchmark workloads: one round each, plus the checks on its outputs.

A round (one *op*) is a fixed mix of calls into the public API of
``freeze_bessel``.  ``run`` does only the program's work and is what the
benchmark times; ``check`` validates what ``run`` returned, outside the timed
interval, and folds it into an :class:`Outcome`.

The program sees only the sizes below and the integer seeds the benchmark
derives from (workload seed, round index).  Module functions are looked up
through their module objects at call time (``sampling.sample_exact``), so a
traced run can wrap them in those namespaces.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from freeze_bessel import cli, core, manifest, sampling, sde, verify

T_EXACT = 1.0
STRENGTH = 200.0
SMALL_COUNT = 20_000
LLN_STRENGTH = 1e4
SDE_T = 0.1
SDE_PATHS = 4096


@dataclass
class Outcome:
    """What one round delivered, as seen by the benchmark's own checks."""

    rows: int = 0
    verdicts: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digest: bytes = b""


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            self._h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, bytes):
            self._h.update(value)
        else:
            self._h.update(repr(value).encode())

    def value(self) -> bytes:
        return self._h.digest()


def chamber_violations(kind: core.RootKind, pts: np.ndarray) -> int:
    """Rows outside the closed chamber, checked independently of the program."""
    x = pts
    if kind is core.RootKind.D:
        ok = x[:, -2] >= np.abs(x[:, -1])
        if x.shape[1] > 2:
            ok &= np.all(x[:, :-2] >= x[:, 1:-1], axis=1)
    else:
        ok = np.all(x[:, :-1] >= x[:, 1:], axis=1)
        if kind is core.RootKind.B:
            ok &= x[:, -1] >= 0.0
    return int(np.count_nonzero(~ok))


def check_points(label: str, pts, kind, rows: int, n: int, out: Outcome) -> None:
    pts = np.asarray(pts, dtype=float)
    if pts.shape != (rows, n):
        out.problems.append(f"{label}: shape {pts.shape}, expected {(rows, n)}")
        return
    if not np.all(np.isfinite(pts)):
        out.problems.append(f"{label}: non-finite rows")
        return
    bad = chamber_violations(kind, pts)
    if bad:
        out.problems.append(f"{label}: {bad} rows violate the {kind.value} chamber order")


def check_batch(label: str, batch, spec, rows: int, out: Outcome) -> None:
    if batch.spec != spec:
        out.problems.append(f"{label}: batch spec {batch.spec} != {spec}")
    check_points(label, batch.points, spec.kind, rows, spec.n, out)
    out.rows += batch.points.shape[0]


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield float(value)


def check_stats(label: str, stats: dict, out: Outcome) -> None:
    values = list(_numbers(stats))
    if not values or not all(math.isfinite(v) for v in values):
        out.problems.append(f"{label}: non-finite statistics {stats}")


def round_seeds(seed: int, round_index: int, k: int) -> list[int]:
    """Round seeds, a function of (workload seed, round index) only."""
    state = np.random.SeedSequence([int(seed), int(round_index)]).generate_state(k)
    return [int(s) for s in state]


# ---------------------------------------------------------------------------


class ExactSmallN:
    """Criterion-05/10 shapes: exact draws and the independence chain at n <= 10."""

    name = "exact-small-n"
    seeds_per_round = 5

    def __init__(self, workdir: Path):
        regime = verify.FreezingRegime.from_theorem
        self.exact = [
            regime("A", 3, STRENGTH),
            regime("B1", 2, STRENGTH, nu=1.0),
            regime("D", 2, STRENGTH),
            regime("A", 10, STRENGTH),
        ]
        self.chain = self.exact[0]

    def run(self, seeds):
        results = []
        for regime, s in zip(self.exact, seeds):
            batch = sampling.sample_exact(regime.spec, T_EXACT, SMALL_COUNT, s)
            results.append((regime, batch, verify.gaussian_battery(
                regime.center(batch.points, T_EXACT), T_EXACT, regime.sigma)))
        batch = sampling.sample_metropolis(self.chain.spec, T_EXACT, SMALL_COUNT, seeds[4])
        results.append((self.chain, batch, verify.gaussian_battery(
            self.chain.center(batch.points, T_EXACT), T_EXACT, self.chain.sigma)))
        return results

    def check(self, results) -> Outcome:
        out = Outcome()
        digest = _Digest()
        for regime, batch, (stats, passed) in results:
            label = f"{batch.method.value}-{regime.spec.kind.value}{regime.spec.n}"
            check_batch(label, batch, regime.spec, SMALL_COUNT, out)
            check_stats(label, stats, out)
            out.verdicts.append(bool(passed))
            digest.add(batch.points)
            digest.add(stats)
        out.digest = digest.value()
        return out


class ExactLargeN:
    """LLN checks at n = 50..200: dense assembly and O(n^3) eigvalsh dominate."""

    name = "exact-large-n"
    seeds_per_round = 3
    checks = (("A", 50, None, 4096), ("B", 100, 1.0, 2048), ("A", 200, None, 512))

    def __init__(self, workdir: Path):
        pass

    def run(self, seeds):
        return [
            verify.lln_check(regime, n, LLN_STRENGTH, T_EXACT, nu=nu, count=count, seed=s)
            for (regime, n, nu, count), s in zip(self.checks, seeds)
        ]

    def check(self, reports) -> Outcome:
        out = Outcome()
        digest = _Digest()
        for (regime, n, _, count), report in zip(self.checks, reports):
            label = f"lln-{regime}{n}"
            check_stats(label, report.statistics, out)
            if report.parameters.get("count") != count or report.parameters.get("n") != n:
                out.problems.append(f"{label}: report parameters {report.parameters}")
            if any(v < 0 for v in _numbers(report.statistics)):
                out.problems.append(f"{label}: negative deviation {report.statistics}")
            out.rows += count
            out.verdicts.append(bool(report.passed))
            digest.add(report.statistics)
        out.digest = digest.value()
        return out


class SdePaths:
    """Fixed-start SDE endpoints against exact draws, as criterion 06 and start-dist run."""

    name = "sde-paths"
    seeds_per_round = 9

    def __init__(self, workdir: Path):
        specs = [
            core.RootSystemSpec.b(2, STRENGTH, STRENGTH),
            core.RootSystemSpec.d(3, STRENGTH),
            core.RootSystemSpec.a(10, STRENGTH),
        ]
        self.configs = [
            sde.SdeConfig(
                spec=spec,
                x0=sde.StartDistribution.at_point(0.2 * np.arange(spec.n, 0, -1, dtype=float)),
                t=SDE_T,
                seed=0,
                paths=SDE_PATHS,
            )
            for spec in specs
        ]
        self.path_steps_per_round = sum(cfg.paths * cfg.resolved_steps for cfg in self.configs)

    def run(self, seeds):
        results = []
        for i, cfg in enumerate(self.configs):
            s_sde, s_exact, s_perm = seeds[3 * i : 3 * i + 3]
            endpoints = sde.simulate_endpoints(replace(cfg, seed=s_sde))
            exact = sampling.sample_exact(cfg.spec, SDE_T, SDE_PATHS, s_exact)
            report = verify.two_sample_agreement(
                endpoints.points, exact.points,
                name=f"sde-vs-exact-{cfg.spec.kind.value}{cfg.spec.n}",
                parameters={"t": SDE_T, "paths": SDE_PATHS},
                seed=s_perm,
            )
            results.append((cfg, endpoints, exact, report))
        return results

    def check(self, results) -> Outcome:
        out = Outcome()
        digest = _Digest()
        for cfg, endpoints, exact, report in results:
            label = f"{cfg.spec.kind.value}{cfg.spec.n}"
            dropped = endpoints.diagnostics.extra.get("dropped_paths")
            if not isinstance(dropped, int) or not 0 <= dropped < SDE_PATHS:
                out.problems.append(f"sde-{label}: dropped_paths {dropped!r}")
                dropped = 0
            check_batch(f"sde-{label}", endpoints, cfg.spec, SDE_PATHS - dropped, out)
            check_batch(f"exact-{label}", exact, cfg.spec, SDE_PATHS, out)
            check_stats(f"agreement-{label}", report.statistics, out)
            out.verdicts.append(bool(report.passed))
            for value in (endpoints.points, exact.points, report.statistics):
                digest.add(value)
        out.digest = digest.value()
        return out


def json_data_section(text: str) -> str:
    """A JSON output file without its manifest object (which holds a timestamp).

    The writers put ``"manifest"`` first at indent 2, so the data section is
    every line after the first line that closes that object.
    """
    lines = text.splitlines(keepends=True)
    if len(lines) < 2 or not lines[1].startswith('  "manifest": {'):
        raise ValueError("JSON output does not start with a manifest object")
    end = next(i for i, line in enumerate(lines) if line.rstrip("\n") == "  },")
    return "".join(lines[end + 1 :])


class CliRoundtrip:
    """Write-and-replay through ``freeze_bessel.cli.main``, in process."""

    name = "cli-roundtrip"
    seeds_per_round = 2

    def __init__(self, workdir: Path):
        self.csv = workdir / "sample-a.csv"
        self.json = workdir / "sample-b.json"
        self.reports = workdir / "identities.json"

    def _call(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _write_and_replay(self, argv, path):
        code = self._call([*argv, "--out", str(path)])
        written = path.read_text(encoding="utf-8")
        replay_code = self._call(["--replay", str(path)])
        return code, written, replay_code, path.read_text(encoding="utf-8")

    def run(self, seeds):
        s_a, s_b = seeds
        return [
            self._write_and_replay(
                ["sample", "--system", "A", "--n", "3", "--k", str(STRENGTH),
                 "--count", str(SMALL_COUNT), "--seed", str(s_a)], self.csv),
            self._write_and_replay(
                ["sample", "--system", "B", "--n", "2", "--k1", str(STRENGTH), "--k2", str(STRENGTH),
                 "--count", str(SMALL_COUNT), "--seed", str(s_b), "--format", "json"], self.json),
            self._write_and_replay(["verify", "--suite", "identities"], self.reports),
        ]

    def check(self, results) -> Outcome:
        out = Outcome()
        digest = _Digest()
        (csv_code, csv1, csv_replay, csv2), (js_code, js1, js_replay, js2), (v_code, v1, v_replay, v2) = results
        if (csv_code, csv_replay, js_code, js_replay) != (0, 0, 0, 0):
            out.problems.append(f"sample exit codes {(csv_code, csv_replay, js_code, js_replay)}")
        if v_code not in (0, 1) or v_replay != v_code:
            out.problems.append(f"verify exit codes {(v_code, v_replay)}")
        sections = []
        for label, first, second, section in (
            ("csv", csv1, csv2, manifest.data_section),
            ("json", js1, js2, json_data_section),
            ("reports", v1, v2, json_data_section),
        ):
            try:
                a, b = section(first), section(second)
            except (ValueError, StopIteration, IndexError) as exc:
                out.problems.append(f"{label}: unreadable output ({exc})")
                return out
            if a != b:
                out.problems.append(f"{label}: replay data section differs")
            sections.append(a)
            digest.add(a.encode())

        csv_lines = sections[0].splitlines()
        if not csv_lines or csv_lines[0] != "x1,x2,x3":
            out.problems.append("csv: missing header")
        else:
            pts = np.array([[float(v) for v in line.split(",")] for line in csv_lines[1:]])
            check_points("csv", pts.reshape(-1, 3), core.RootKind.A, SMALL_COUNT, 3, out)
        batch = json.loads(js2)["batch"]
        check_points("json", batch["points"], core.RootKind.B, SMALL_COUNT, 2, out)
        out.rows += 4 * SMALL_COUNT  # two writes and two replays of 20000 rows

        reports = json.loads(v2)["reports"]
        if len(reports) != 7:
            out.problems.append(f"reports: {len(reports)} identity reports, expected 7")
        for report in reports:
            check_stats(f"reports-{report['name']}", report["statistics"], out)
            out.verdicts.append(bool(report["passed"]))
        if (v_code == 0) != all(out.verdicts):
            out.problems.append("verify exit code disagrees with the written verdicts")
        out.digest = digest.value()
        return out


WORKLOADS = {w.name: w for w in (ExactSmallN, ExactLargeN, SdePaths, CliRoundtrip)}
