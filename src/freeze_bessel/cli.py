"""Command-line surface: every computation and verification as a scripted run.

Subcommands: zeros, target, sigma, constants, sample, sde, verify.  Output
files always embed a RunManifest; ``--replay FILE`` parses its recorded
parameters like a command line and re-runs it.  Exit codes: 0 success,
1 statistical failure, 2 bad input, 3 runtime abort (sampler collapse, budget
exhaustion, numerical failure).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._version import __version__
from .core import RootKind, RootSystemSpec, _as_count
from .equilibria import (
    freezing_target,
    hermite_zeros,
    laguerre_minus_one_zeros,
    laguerre_zeros,
)
from .gaussian import _FAMILY_PARAMS, _exp_or_inf, covariance, log_norm_constant, precision_matrix
from .manifest import (
    MANIFEST_PREFIX,
    RunManifest,
    batch_csv_text,
    batch_json_text,
    read_manifest,
    reports_json_text,
    write_text,
)
from .sampling import sample_exact, sample_metropolis
from .sde import SdeConfig, StartDistribution, simulate_endpoints
from .verify import SUITES, run_suite

__all__ = ["main"]


def _parse_vector(value: str, flag: str) -> np.ndarray:
    """The comma-separated numbers of ``flag``; an empty or non-numeric entry is bad input."""
    try:
        return np.array([float(p) for p in value.split(",")])
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {value!r}") from None


def _refuse_untaken(owner: str, params: dict, taken, offered) -> None:
    """Bad input: a flag of ``offered`` that is set but not in ``taken``."""
    untaken = [f"--{name}" for name in offered if name not in taken and params[name] is not None]
    if untaken:
        raise ValueError(f"{owner} takes no {', '.join(untaken)}")


# the multiplicity flags each system takes
_SYSTEM_PARAMS = {"A": ("k",), "B": ("k1", "k2"), "D": ("k",)}


def _spec_from_params(params: dict) -> RootSystemSpec:
    system = params["system"].upper()
    names = _SYSTEM_PARAMS[system]
    missing = [f"--{name}" for name in names if params[name] is None]
    if missing:
        raise ValueError(f"system {system} needs {' and '.join(missing)}")
    _refuse_untaken(f"system {system}", params, names, ("k", "k1", "k2"))
    if system == "B":
        return RootSystemSpec.b(params["n"], params["k1"], params["k2"])
    return (RootSystemSpec.a if system == "A" else RootSystemSpec.d)(params["n"], params["k"])


def _emit_text(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: str | None, manifest: RunManifest) -> None:
    _emit_text(json.dumps({"manifest": manifest.to_dict(), **obj} if out else obj, indent=2) + "\n", out)


# ---------------------------------------------------------------------------
# commands (each takes the replayable parameter map)


def cmd_zeros(params: dict, threads: int | None) -> int:
    family, n = params["family"], params["n"]
    # --alpha defaults to 0.0, which every zeros manifest records
    if family != "laguerre" and params["alpha"] != 0.0:
        raise ValueError(f"family {family} takes no --alpha")
    if family == "hermite":
        zeros = hermite_zeros(n)
    elif family == "laguerre":
        zeros = laguerre_zeros(n, params["alpha"])
    else:
        zeros = laguerre_minus_one_zeros(n)
    manifest = RunManifest("zeros", params, seed=None)
    out = params["out"]
    if params["format"] == "csv":
        lines = [MANIFEST_PREFIX + manifest.to_json(), "zero"]
        lines.extend(repr(float(z)) for z in zeros)
        _emit_text("\n".join(lines) + "\n", out)
    elif out:
        _emit_json({"zeros": list(map(float, zeros))}, out, manifest)
    else:
        print(json.dumps(list(map(float, zeros))))
    return 0


def cmd_target(params: dict, threads: int | None) -> int:
    kind = RootKind(params["system"].upper())
    ft = freezing_target(kind, params["n"], params["nu"])
    obj = {
        "system": kind.value,
        "n": ft.n,
        "nu": ft.nu,
        "source": ft.source.value,
        "target": ft.coords.tolist(),
    }
    _emit_json(obj, params["out"], RunManifest("target", params, seed=None))
    return 0


def cmd_sigma(params: dict, threads: int | None) -> int:
    kind = RootKind(params["system"].upper())
    pm = precision_matrix(kind, params["n"], params["nu"])
    obj = {
        "system": kind.value,
        "n": pm.n,
        "nu": pm.nu,
        "S": pm.matrix.tolist(),
        "Sigma": covariance(pm).tolist(),
        "det_S": pm.det,
        "log_det_S": pm.log_det,
    }
    _emit_json(obj, params["out"], RunManifest("sigma", params, seed=None))
    return 0


def cmd_constants(params: dict, threads: int | None) -> int:
    family = params["family"]
    names = _FAMILY_PARAMS[family]
    missing = [f"--{name}" for name in names if params[name] is None]
    if missing:
        raise ValueError(f"family {family} needs {' and '.join(missing)}")
    _refuse_untaken(f"family {family}", params, (*names, "x") if family == "tildeB" else names,
                    ("k", "k1", "k2", "nu", "beta", "x"))
    kwargs: dict = {name: params[name] for name in names}
    if family == "tildeB" and params["x"] is not None:
        kwargs["x"] = _parse_vector(params["x"], "--x").tolist()
    log_value = log_norm_constant(family, **kwargs)
    obj = {"family": family, "params": kwargs, "log_value": log_value, "value": _exp_or_inf(log_value)}
    _emit_json(obj, params["out"], RunManifest("constants", params, seed=None))
    return 0


def _write_batch(batch, params: dict, command: str) -> None:
    manifest = RunManifest(command, params, seed=params["seed"])
    _emit_text((batch_json_text if params["format"] == "json" else batch_csv_text)(batch, manifest), params["out"])


def cmd_sample(params: dict, threads: int | None) -> int:
    spec = _spec_from_params(params)
    draw = (spec, params["t"], params["count"], params["seed"])
    if params["method"] == "exact":
        batch = sample_exact(*draw, threads=threads)
    else:
        batch = sample_metropolis(*draw)
    _write_batch(batch, params, "sample")
    return 0


def cmd_sde(params: dict, threads: int | None) -> int:
    spec = _spec_from_params(params)
    cfg = SdeConfig(
        spec=spec,
        x0=StartDistribution.at_point(_parse_vector(params["x0"], "--x0")),
        t=params["t"],
        seed=params["seed"],
        steps=params["steps"],
        paths=params["paths"],
        threads=threads,
    )
    batch = simulate_endpoints(cfg)
    _write_batch(batch, params, "sde")
    return 0


def cmd_verify(params: dict, threads: int | None) -> int:
    seed = params["seed"]
    reports = run_suite(
        params["suite"],
        seed=seed,
        quick=params["quick"],
        n=params["n"],
        strength=params["k"],
        t=params["t"],
        n_max=params["n_max"],
    )
    for report in reports:
        print(report.summary_line())
    out = params["out"]
    if out:
        manifest = RunManifest("verify", params, seed=seed)
        write_text(out, reports_json_text(reports, manifest))
    return 0 if all(r.passed for r in reports) else 1


REGISTRY = {
    "zeros": cmd_zeros,
    "target": cmd_target,
    "sigma": cmd_sigma,
    "constants": cmd_constants,
    "sample": cmd_sample,
    "sde": cmd_sde,
    "verify": cmd_verify,
}

_GLOBAL_KEYS = {"command", "replay", "threads"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeze-bessel",
        description="Freezing limits of interacting particle systems: "
        "equilibria, Gaussian limits, samplers, and statistical verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--replay", metavar="FILE", help="re-run the command recorded in FILE's manifest")
    parser.add_argument(
        "--threads", type=int, default=None,
        help="most worker threads of the n >= 12 eigensolve of sample and of the path pool of sde "
        "(default: every usable core for the eigensolve, one thread for the paths); other commands, "
        "verify included, accept it and run at the defaults",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("zeros", help="classical orthogonal polynomial zeros")
    p.add_argument("family", choices=["hermite", "laguerre", "laguerre-1"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0, help="Laguerre parameter (family 'laguerre' only)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")

    for name, help_text in (
        ("target", "freezing target configuration"),
        ("sigma", "limit precision matrix S, covariance, determinant"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--system", required=True, choices=["A", "B", "D", "a", "b", "d"])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--out")

    p = sub.add_parser("constants", help="closed-form normalization constants (log space)")
    p.add_argument("--family", required=True, choices=["cA", "cB", "cD", "tildeA", "tildeB"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--x", help="start vector for tildeB, comma-separated")
    p.add_argument("--out")

    p = sub.add_parser("sample", help="draw fixed-time samples of the start-0 law")
    p.add_argument("--system", required=True, choices=["A", "B", "D", "a", "b", "d"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--count", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=["exact", "metropolis"], default="exact")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("sde", help="Heun-scheme SDE endpoints from a fixed start")
    p.add_argument("--system", required=True, choices=["A", "B", "D", "a", "b", "d"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x0", required=True, help="start point, comma-separated")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run a statistical verification suite")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=float, default=None, help="multiplicity strength override")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--n-max", dest="n_max", type=int, default=None, help="identity grid bound")
    p.add_argument("--out", help="write the VerificationReports as JSON")

    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _GLOBAL_KEYS}


def _parse_replay(parser: argparse.ArgumentParser, path) -> argparse.Namespace:
    """Parse the recorded parameters of FILE's manifest as a command line.

    Values go in as ``--name=value`` (``-0.1,-0.5`` is no flag), True as a bare
    flag, None and False not at all, and ``zeros``' family as its positional.
    A parse that does not give back the recorded map is bad input.
    """
    manifest = read_manifest(path)
    if manifest.command not in REGISTRY:
        raise ValueError(f"manifest command {manifest.command!r} is not replayable")
    recorded = manifest.parameters
    argv = [manifest.command]
    for name, value in recorded.items():
        flag = "--" + name.replace("_", "-")
        if (manifest.command, name) == ("zeros", "family"):
            argv.insert(1, str(value))
        elif value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")
    args = parser.parse_args(argv)
    parsed = _params_from_args(args)
    differ = sorted(k for k in parsed.keys() | recorded.keys() if k not in parsed or k not in recorded
                    or parsed[k] != recorded[k])
    if differ:
        raise ValueError(f"run parameters {differ} do not parse as recorded")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = None if args.threads is None else _as_count(args.threads, "threads")
        run = _parse_replay(parser, args.replay) if args.replay else args
        if not run.command:
            parser.print_help()
            return 2
        return REGISTRY[run.command](_params_from_args(run), threads)
    except RuntimeError as exc:  # SamplerAbort, BudgetExceeded and numerical failures
        print(f"abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
