"""Command-line surface: every computation and verification as a scripted run.

Subcommands: zeros, target, sigma, constants, sample, sde, verify.  Output
files always embed a RunManifest; ``--replay FILE`` re-runs the command
recorded in FILE's manifest.  Exit codes: 0 success, 1 statistical failure,
2 bad input, 3 runtime abort (sampler collapse, budget exhaustion, numerical failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from ._version import __version__
from .core import RootKind, RootSystemSpec
from .equilibria import (
    freezing_target,
    hermite_zeros,
    laguerre_minus_one_zeros,
    laguerre_zeros,
)
from .gaussian import _FAMILY_PARAMS, covariance, log_norm_constant, precision_matrix
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


def _parse_vector(value, n: int | None = None) -> np.ndarray:
    if isinstance(value, str):
        parts = [p for p in value.replace(";", ",").split(",") if p.strip()]
        vec = np.array([float(p) for p in parts])
    else:
        vec = np.asarray(value, dtype=float)
    if n is not None and vec.shape != (n,):
        raise ValueError(f"expected {n} comma-separated coordinates, got {vec.size}")
    return vec


def _refuse_untaken(owner: str, params: dict, taken, offered) -> None:
    """Bad input: a flag of ``offered`` that is set but not in ``taken``."""
    untaken = [f"--{name}" for name in offered if name not in taken and params[name] is not None]
    if untaken:
        raise ValueError(f"{owner} takes no {', '.join(untaken)}")


# the multiplicity flags each system takes
_SYSTEM_PARAMS = {"A": ("k",), "B": ("k1", "k2"), "D": ("k",)}


def _spec_from_params(params: dict) -> RootSystemSpec:
    system = str(params["system"]).upper()
    if system not in _SYSTEM_PARAMS:
        raise ValueError(f"unknown system {system!r}")
    names = _SYSTEM_PARAMS[system]
    missing = [f"--{name}" for name in names if params[name] is None]
    if missing:
        raise ValueError(f"system {system} needs {' and '.join(missing)}")
    _refuse_untaken(f"system {system}", params, names, ("k", "k1", "k2"))
    n = int(params["n"])
    if system == "B":
        return RootSystemSpec.b(n, float(params["k1"]), float(params["k2"]))
    return (RootSystemSpec.a if system == "A" else RootSystemSpec.d)(n, float(params["k"]))


def _emit_json(obj: dict, out: str | None, manifest: RunManifest) -> None:
    if out:
        payload = {"manifest": manifest.to_dict(), **obj}
        write_text(out, json.dumps(payload, indent=2) + "\n")
    else:
        print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# commands (each takes the replayable parameter map)


def cmd_zeros(params: dict, threads: int | None = None) -> int:
    family = params["family"]
    n = int(params["n"])
    if family == "hermite":
        zeros = hermite_zeros(n)
    elif family == "laguerre":
        zeros = laguerre_zeros(n, float(params["alpha"]))
    elif family == "laguerre-1":
        zeros = laguerre_minus_one_zeros(n)
    else:
        raise ValueError(f"unknown zero family {family!r}")
    manifest = RunManifest("zeros", params, seed=None)
    out = params["out"]
    if params["format"] == "csv" and out:
        lines = [MANIFEST_PREFIX + manifest.to_json(), "zero"]
        lines.extend(repr(float(z)) for z in zeros)
        write_text(out, "\n".join(lines) + "\n")
    elif out:
        _emit_json({"zeros": list(map(float, zeros))}, out, manifest)
    else:
        print(json.dumps(list(map(float, zeros))))
    return 0


def cmd_target(params: dict, threads: int | None = None) -> int:
    kind = RootKind(str(params["system"]).upper())
    nu = params["nu"]
    ft = freezing_target(kind, int(params["n"]), None if nu is None else float(nu))
    obj = {
        "system": kind.value,
        "n": ft.n,
        "nu": ft.nu,
        "source": ft.source.value,
        "target": ft.coords.tolist(),
    }
    _emit_json(obj, params["out"], RunManifest("target", params, seed=None))
    return 0


def cmd_sigma(params: dict, threads: int | None = None) -> int:
    kind = RootKind(str(params["system"]).upper())
    nu = params["nu"]
    pm = precision_matrix(kind, int(params["n"]), None if nu is None else float(nu))
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


def cmd_constants(params: dict, threads: int | None = None) -> int:
    family = params["family"]
    if family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown constant family {family!r}")
    names = _FAMILY_PARAMS[family]
    missing = [f"--{name}" for name in names if params[name] is None]
    if missing:
        raise ValueError(f"family {family} needs {' and '.join(missing)}")
    _refuse_untaken(f"family {family}", params, (*names, "x") if family == "tildeB" else names,
                    ("k", "k1", "k2", "nu", "beta", "x"))
    kwargs: dict = {name: int(params[name]) if name == "n" else float(params[name]) for name in names}
    if family == "tildeB" and params["x"] is not None:
        kwargs["x"] = _parse_vector(params["x"]).tolist()
    const = log_norm_constant(family, **kwargs)
    try:
        value = math.exp(const.log_value)
    except OverflowError:
        value = math.inf
    obj = {"family": family, "params": kwargs, "log_value": const.log_value, "value": value}
    _emit_json(obj, params["out"], RunManifest("constants", params, seed=None))
    return 0


def _write_batch(batch, params: dict, command: str) -> None:
    manifest = RunManifest(command, params, seed=int(params["seed"]))
    text = (
        batch_json_text(batch, manifest)
        if params["format"] == "json"
        else batch_csv_text(batch, manifest)
    )
    out = params["out"]
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_sample(params: dict, threads: int | None = None) -> int:
    spec = _spec_from_params(params)
    t = float(params["t"])
    count = int(params["count"])
    seed = int(params["seed"])
    method = params["method"]
    if method == "exact":
        batch = sample_exact(spec, t, count, seed, threads=threads)
    elif method == "metropolis":
        batch = sample_metropolis(spec, t, count, seed)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    _write_batch(batch, params, "sample")
    return 0


def cmd_sde(params: dict, threads: int | None = None) -> int:
    spec = _spec_from_params(params)
    x0 = _parse_vector(params["x0"], spec.n)
    cfg = SdeConfig(
        spec=spec,
        x0=StartDistribution.at_point(x0),
        t=float(params["t"]),
        seed=int(params["seed"]),
        steps=None if params["steps"] is None else int(params["steps"]),
        paths=int(params["paths"]),
        threads=threads,
    )
    batch = simulate_endpoints(cfg)
    _write_batch(batch, params, "sde")
    return 0


def cmd_verify(params: dict, threads: int | None = None) -> int:
    suite = params["suite"]
    seed = params["seed"]
    if seed is None and suite != "identities":
        raise ValueError(f"suite {suite!r} is randomized: pass --seed for a reproducible run")
    reports = run_suite(
        suite,
        seed=None if seed is None else int(seed),
        quick=bool(params["quick"]),
        threads=threads,
        n=None if params["n"] is None else int(params["n"]),
        strength=None if params["k"] is None else float(params["k"]),
        t=float(params["t"]),
        n_max=None if params["n_max"] is None else int(params["n_max"]),
    )
    for report in reports:
        print(report.summary_line())
    out = params["out"]
    if out:
        manifest = RunManifest("verify", params, seed=None if seed is None else int(seed))
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


class _Params(dict):
    """A command's parameter map; a key it lacks (an edited or older manifest) is bad input."""

    def __missing__(self, key):
        raise ValueError(f"run parameters lack {key!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeze-bessel",
        description="Freezing limits of interacting particle systems: "
        "equilibria, Gaussian limits, samplers, and statistical verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--replay", metavar="FILE", help="re-run the command recorded in FILE's manifest")
    parser.add_argument(
        "--threads", type=_positive_int, default=None,
        help="most worker threads a run may start (default: every usable core for the n >= 16 "
        "eigensolve of exact sampling, one thread for everything else)",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("zeros", help="classical orthogonal polynomial zeros")
    p.add_argument("family", choices=["hermite", "laguerre", "laguerre-1"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0, help="Laguerre parameter (family 'laguerre')")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.replay:
            manifest = read_manifest(args.replay)
            if manifest.command not in REGISTRY:
                raise ValueError(f"manifest command {manifest.command!r} is not replayable")
            return REGISTRY[manifest.command](_Params(manifest.parameters), args.threads)
        if not args.command:
            parser.print_help()
            return 2
        return REGISTRY[args.command](_Params(_params_from_args(args)), args.threads)
    except RuntimeError as exc:  # SamplerAbort, BudgetExceeded and numerical failures
        print(f"abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
