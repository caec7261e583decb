"""Benchmark of freeze_bessel: closed-loop workloads against its public API.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own worker
process (``worker.py``) with BLAS/OpenMP pinned to one thread; one client
runs rounds back to back for ``--seconds``.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` the per-layer metrics of a
separate traced run, and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import OUT, SETUP_DONE, THREAD_VARS  # noqa: E402

WORKLOADS = ("exact-small-n", "exact-large-n", "sde-paths", "cli-roundtrip")
SETUP_SAMPLES = 3  # fresh interpreters timed through set-up; the median is reported
DEADLINE_S = 170.0  # per workload, inside the 180 s a run may take


class WorkerError(RuntimeError):
    pass


def start_worker(args, name: str, env: dict, deadline: float, setup_only: bool):
    """Run one worker; return (seconds to SETUP_DONE, last stdout line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    setup_s = last = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if setup_s is None and line == SETUP_DONE:
                setup_s = time.perf_counter() - t0
            elif line:
                last = line
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or setup_s is None:
        raise WorkerError(f"{name}: worker exited with code {code}")
    return setup_s, last


def quantile_beyond(values: list, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it, or None."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def run_workload(args, name: str, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, name, env, deadline, setup_only=True)[0])
    setup_s, last = start_worker(args, name, env, deadline, setup_only=False)
    setups.append(setup_s)
    try:
        raw = json.loads(last)
    except (TypeError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{name}: unreadable worker result ({exc})") from exc

    failed = len(raw["failures"])
    report = {"workload": name, "attempted": raw["attempted"], "failed": failed, "wrong": raw["wrong"],
              "failures": raw["failures"][:5], "provenance": raw["provenance"]}
    lat = raw["latencies"]
    if args.trace:
        traced = statistics.median(raw["traced_latencies"])
        untraced = statistics.median(lat)
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in raw["per_layer"].items()}
        metrics["trace.traced_op_s"] = {"value": traced, "unit": "s"}
        metrics["trace.untraced_op_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        report["metrics"] = metrics
        return report

    loop_s = sum(lat)
    report["metrics"] = {
        "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "rows_per_s": {"value": raw["rows"] / loop_s, "unit": "1/s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    # Reported for reading, but not as BENCHMARK.json metrics: they are zero
    # or undefined on some workloads or runs (see README.md).
    tail = quantile_beyond(lat)
    report["info"] = {
        "ops": len(lat),
        "setup_samples_s": setups,
        "op_tail_s": None if tail is None else {"value": tail[0], "percentile": tail[1], "beyond": 10},
        "path_steps_per_s": raw["path_steps_per_op"] * len(lat) / loop_s if raw["path_steps_per_op"] else None,
        "failed_ratio": f"{failed}/{raw['attempted']}",
        "verify.verdicts": raw["verdicts"],
        "verify.verdict_pass_ratio": raw["verdicts_passed"] / raw["verdicts"] if raw["verdicts"] else None,
    }
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['provenance']['seed']})")
    for key, m in report["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, value in report.get("info", {}).items():
        print(f"  {key} = {json.dumps(value)}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure.strip()}", file=sys.stderr)
    print("  provenance: " + json.dumps(report["provenance"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "freeze_bessel" / "__init__.py").is_file():
        print(f"error: no freeze_bessel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})  # before the worker imports numpy
    # Every set-up then compiles the sources alike, and nothing is written under src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(args, name, env))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for report in reports:
        print_report(report)
    suffix = f"seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{args.workload}-{suffix}.json").write_text(json.dumps(reports, indent=2) + "\n")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = all(r["wrong"] == 0 for r in reports)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
