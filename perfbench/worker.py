"""One benchmark process running one workload; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports ``freeze_bessel`` from the checkout's ``src/``, builds the
workload's fixed inputs and runs one cold round, then prints ``SETUP_DONE``;
the parent times set-up up to that line.  ``--setup-only`` exits there.
Otherwise the process checks determinism (the cold round re-run, and the
samplers with worker threads against the default), runs the timed closed
loop for ``--seconds`` and prints one JSON line with what it measured.

With ``--trace 1`` the cold round is traced, and the timed loop alternates
traced and untraced rounds, so the tracing overhead is measured in the same
process and the per-layer numbers come from the traced rounds only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_DONE = "SETUP_DONE"
PACKAGE_THREADS = None  # the package's ``threads`` argument is left at its default


def import_package():
    sys.path.insert(0, str(SRC))
    import freeze_bessel

    origin = Path(freeze_bessel.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise SystemExit(f"freeze_bessel was imported from {origin}, not from {SRC}")
    return freeze_bessel


def run_round(workload, seeds):
    """Time ``workload.run`` alone; return (latency, results, error)."""
    t0 = time.perf_counter()
    try:
        results = workload.run(seeds)
    except Exception:  # a raising op is a failed op, and the loop goes on
        return time.perf_counter() - t0, None, traceback.format_exc(limit=4)
    return time.perf_counter() - t0, results, None


def check_round(workload, results, error):
    """Return (outcome, failure message or None, whether an output was wrong).

    An op that raised failed without delivering anything; an op whose outputs
    fail the benchmark's checks delivered a wrong result.
    """
    if error is not None:
        return None, error, False
    try:
        outcome = workload.check(results)
    except Exception:
        return None, traceback.format_exc(limit=4), True
    message = "; ".join(outcome.problems) or None
    return outcome, message, message is not None


def thread_checks(fb, seeds) -> list:
    """Same seed, same bytes, whatever the thread count: both samplers, several sub-batches."""
    threads = max(2, os.cpu_count() or 1)
    spec = fb.RootSystemSpec.a(3, 200.0)
    mismatches = []
    exact = [fb.sample_exact(spec, 1.0, 3 * 4096, seeds[0], threads=th).points for th in (None, threads)]
    if exact[0].tobytes() != exact[1].tobytes():
        mismatches.append(f"sample_exact threads={threads} differs from the default")
    cfg = fb.SdeConfig(
        spec=fb.RootSystemSpec.b(2, 200.0, 200.0),
        x0=fb.StartDistribution.at_point([0.4, 0.2]),
        t=0.1, seed=seeds[1], steps=20, paths=2 * 4096,
    )
    paths = [fb.simulate_endpoints(replace(cfg, threads=th)).points for th in (None, threads)]
    if paths[0].tobytes() != paths[1].tobytes():
        mismatches.append(f"simulate_endpoints threads={threads} differs from the default")
    return mismatches


def provenance(fb, args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "freeze_bessel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "package_threads": PACKAGE_THREADS,
        "freeze_bessel": fb.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    fb = import_package()
    import tracing
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        seeds_per_round = workload_cls.seeds_per_round
        round0 = workloads.round_seeds(args.seed, 0, seeds_per_round + 2)
        cold_seeds, thread_seeds = round0[:seeds_per_round], round0[seeds_per_round:]
        if tracer:
            tracer.install()
            tracer.begin_round(tracing.COLD)
        try:
            workload = workload_cls(workdir)
            _, cold_results, cold_error = run_round(workload, cold_seeds)
        finally:
            if tracer:
                tracer.end_round()
                tracer.uninstall()
        print(SETUP_DONE, flush=True)
        if args.setup_only:
            return 0

        failures = []  # one message per failed op
        wrong = 0  # failed ops that delivered a wrong result rather than raising
        cold, message, bad = check_round(workload, cold_results, cold_error)
        if message:
            failures.append(f"cold round: {message}")
            wrong += bad
        _, rerun_results, rerun_error = run_round(workload, cold_seeds)
        rerun, message, bad = check_round(workload, rerun_results, rerun_error)
        if message:
            failures.append(f"cold round re-run: {message}")
            wrong += bad
        elif cold is not None and rerun.digest != cold.digest:
            failures.append("cold round re-run: output bytes differ")
            wrong += 1
        try:
            mismatches = thread_checks(fb, thread_seeds)
        except Exception:
            failures.append(f"thread checks: {traceback.format_exc(limit=4)}")
        else:
            failures.extend(mismatches)
            wrong += len(mismatches)
        attempted = 4  # the cold round, its re-run and the two thread checks

        latencies, traced_latencies = [], []
        rows = verdicts = verdicts_passed = 0
        round_index = 1
        start = time.perf_counter()
        min_rounds = 2 if tracer else 1
        while round_index <= min_rounds or time.perf_counter() - start < args.seconds:
            seeds = workloads.round_seeds(args.seed, round_index, seeds_per_round)
            traced = tracer is not None and round_index % 2 == 1
            if traced:
                tracer.install()
                tracer.begin_round(round_index)
            try:
                latency, results, error = run_round(workload, seeds)
            finally:
                if traced:
                    tracer.end_round()
                    tracer.uninstall()
            outcome, message, bad = check_round(workload, results, error)
            attempted += 1
            if message:
                failures.append(f"round {round_index}: {message}")
                wrong += bad
            if outcome is not None:
                verdicts += len(outcome.verdicts)
                verdicts_passed += sum(outcome.verdicts)
            if traced:
                traced_latencies.append(latency)
            else:
                latencies.append(latency)
                rows += outcome.rows if outcome is not None and not message else 0
            round_index += 1

        result = {
            "latencies": latencies,
            "traced_latencies": traced_latencies,
            "rows": rows,
            "path_steps_per_op": getattr(workload, "path_steps_per_round", 0),
            "attempted": attempted,
            "failures": failures,
            "wrong": wrong,
            "verdicts": verdicts,
            "verdicts_passed": verdicts_passed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "provenance": provenance(fb, args),
        }
        if tracer:
            traced_rounds = list(range(1, round_index, 2))
            result["per_layer"] = tracing.per_layer_metrics(tracer, traced_rounds)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
