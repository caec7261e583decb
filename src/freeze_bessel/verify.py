"""Statistical verification of the freezing limit theorems.

Each check turns one limit statement into a concrete test on a finite sample
batch and returns a VerificationReport.  The Gaussian battery used throughout
consists of

* a mean check: the empirical mean norm must stay within 3 standard errors,
* a covariance check: Frobenius relative error against t*Sigma below 5%,
* a KS test of squared Mahalanobis norms against chi-square with N dof,
* per-coordinate KS tests against the Gaussian marginals.

Each threshold is one module constant (``P_THRESHOLD``, ``COV_REL_TOL``,
``MEAN_SIGMA_MULT``, ``N_PERMUTATIONS``, ``LLN_TOL``, and the calibration rule
``CALIBRATION_MIN_PASSES`` of ``CALIBRATION_SEEDS``), tuned for 20,000-sample
runs.  The verdict reads the constant and the report records it; no check
takes a threshold as an argument.  Every randomized check takes ``seed`` with
no default: its verdict is a statement about the one draw the caller seeded.

The ``identities`` suite decides its verdicts here too.  The per-point
checkers of ``gaussian`` and ``equilibria`` return numbers, and each grid
passes when its worst value is below its tolerance: determinant 1e-8,
stationarity residual 1e-10 (the gate of ``equilibria.freezing_target``),
potential 1e-9, quadrature 1e-6, and proof constant 5e-3 at the largest
multiplicity, with each n's errors non-increasing along the grid up to a
1e-12 rounding slack.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .core import RootKind, RootSystemSpec, _as_count, _as_seed, _as_time
from .equilibria import _RESIDUAL_TOL, freezing_target, potential_identity_check
from .gaussian import FreezingRegime, _FAMILY_PARAMS, determinant_identity, log_norm_constant, proof_constant_limit
from .quadrature import chamber_weight_integral
from .report import VerificationReport
from .sampling import SampleBatch, _spawn_seeds, sample_exact
from .sde import SdeConfig, StartDistribution, simulate_endpoints
from .stat_tests import (
    _check_count,
    chi_square_cdf,
    energy_distance_test,
    half_normal_cdf,
    ks_test_cdf,
    ks_test_two_sample,
    mahalanobis_sq,
    normal_cdf,
)

__all__ = [
    "SUITES",
    "SUITE_TABLE",
    "SuiteRow",
    "DEFAULT_COUNT",
    "FreezingRegime",
    "gaussian_battery",
    "lln_check",
    "clt_gaussian_check",
    "clt_type_a_limit_check",
    "one_sided_check",
    "start_distribution_check",
    "two_sample_agreement",
    "translation_invariance_check",
    "calibration_check",
    "covariance_error_trend",
    "identity_reports",
    "run_suite",
]

DEFAULT_COUNT = 20_000
_QUICK_COUNT = 4000
P_THRESHOLD = 0.01
COV_REL_TOL = 0.05
MEAN_SIGMA_MULT = 3.0
N_PERMUTATIONS = 200
LLN_TOL = 0.05
CALIBRATION_SEEDS = 20
CALIBRATION_MIN_PASSES = 19
# the multiplicities cov-error-trend sweeps, smallest first
TREND_STRENGTHS = (50.0, 200.0, 800.0)
# each report records a fresh copy: reports are mutable dataclasses
_BATTERY_TOLERANCES = {"p_threshold": P_THRESHOLD, "cov_rel_tol": COV_REL_TOL, "mean_sigma_mult": MEAN_SIGMA_MULT}


# ---------------------------------------------------------------------------
# the draw and the Gaussian battery


def _draw(spec, t, count, seed, start=None, steps=None) -> SampleBatch:
    """The draw of every check: exact start-0 samples, or SDE endpoints from ``start``.

    ``start`` is a point or a ``StartDistribution``; ``steps`` applies to SDE
    runs only, and an SDE batch records its step count in
    ``diagnostics.extra["steps"]``.
    """
    if start is None:
        if steps is not None:
            raise ValueError("steps applies to SDE runs from a start only")
        return sample_exact(spec, t, count, seed)
    return simulate_endpoints(SdeConfig(spec=spec, x0=start, t=t, seed=seed, steps=steps, paths=count))


def gaussian_battery(centered: np.ndarray, t: float, sigma: np.ndarray) -> tuple[dict, bool]:
    """Run the four-part Gaussian test battery on already-centered samples."""
    _as_time(t)
    pts = np.asarray(centered, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d batch")
    count, n = pts.shape
    _check_count(count)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n, n):
        raise ValueError(f"sigma must be {n}x{n} for {n} coordinates, got shape {sigma.shape}")
    tsig = t * sigma
    mean = pts.mean(axis=0)
    mean_norm = float(np.linalg.norm(mean))
    mean_limit = MEAN_SIGMA_MULT * math.sqrt(np.trace(tsig) / count)
    dev = pts - mean
    # np.cov's GEMM sums in an order that depends on the BLAS thread count;
    # einsum (without optimize) calls no BLAS and sums in one fixed order
    emp = np.einsum("ij,ik->jk", dev, dev) / (count - 1)
    cov_err = float(np.linalg.norm(emp - tsig) / np.linalg.norm(tsig))
    maha = mahalanobis_sq(pts, tsig)
    _, p_maha = ks_test_cdf(maha, lambda q: chi_square_cdf(q, n))
    p_coord = []
    for i in range(n):
        _, p_i = ks_test_cdf(pts[:, i], lambda x, s=math.sqrt(tsig[i, i]): normal_cdf(x, s))
        p_coord.append(float(p_i))
    passed = (
        mean_norm < mean_limit
        and cov_err < COV_REL_TOL
        and p_maha > P_THRESHOLD
        and all(p > P_THRESHOLD for p in p_coord)
    )
    stats = {
        "count": count,
        "mean_norm": mean_norm,
        "mean_limit": float(mean_limit),
        "cov_frobenius_rel_err": cov_err,
        "mahalanobis_ks_p": float(p_maha),
        "per_coordinate_ks_p": p_coord,
    }
    return stats, bool(passed)


def _gaussian_regime(theorem: str, n: int, strength: float, nu: float | None) -> FreezingRegime:
    """The regime of a Gaussian check; B3 is refused, as its last coordinate is one-sided."""
    if theorem == "B3":
        raise ValueError("theorem B3 has a one-sided last coordinate, not a Gaussian limit: use one_sided_check")
    return FreezingRegime.from_theorem(theorem, n, strength, nu=nu)


def _battery_report(name: str, regime: FreezingRegime, batch: SampleBatch, parameters: dict, seed: int,
                    **labels) -> VerificationReport:
    """The battery report on ``batch`` centered by ``regime``, its statistics followed by ``labels``."""
    stats, passed = gaussian_battery(regime.center(batch.points, batch.t), batch.t, regime.sigma)
    return VerificationReport(name, parameters, {**stats, **labels}, dict(_BATTERY_TOLERANCES), passed, seed)


# ---------------------------------------------------------------------------
# law of large numbers


def lln_check(
    regime: str,
    n: int,
    strength: float,
    t: float,
    *,
    nu: float | None = None,
    k1: float | None = None,
    count: int = DEFAULT_COUNT,
    seed: int,
) -> VerificationReport:
    """Scaled samples concentrate at the freezing target.

    Regimes: "A" (strength = k), "B" (strength = beta with nu >= 0 fixed:
    FreezingRegime B1, or B3 with k1 = 0 at nu = 0), "B3" (strength = k2
    with k1 fixed; D-type target).
    """
    if regime not in ("A", "B", "B3"):
        raise ValueError(f"unknown LLN regime {regime!r}")
    if regime == "B" and (nu is None or nu < 0):
        raise ValueError("regime B needs nu >= 0")
    if regime == "B" and nu == 0 and k1 is None:
        limit = FreezingRegime.from_theorem("B3", n, strength, k1=0.0)
    else:  # FreezingRegime rejects a nu or k1 that its regime does not take
        limit = FreezingRegime.from_theorem("B1" if regime == "B" else regime, n, strength, nu=nu, k1=k1)
    batch = _draw(limit.spec, t, count, seed)
    scaled = batch.points / math.sqrt(limit.m * t)
    mean_dev = float(np.max(np.abs(scaled.mean(axis=0) - limit.target)))
    scaled -= limit.target
    sup_dev = np.max(np.abs(scaled, out=scaled), axis=1)
    q95 = float(np.quantile(sup_dev, 0.95))
    passed = mean_dev < LLN_TOL and q95 < LLN_TOL
    return VerificationReport(
        name=f"lln-{regime}",
        parameters={"n": n, "strength": strength, "t": t, "nu": nu, "k1": k1, "count": count},
        statistics={"max_mean_deviation": mean_dev, "sup_norm_q95": q95},
        tolerances={"tol": LLN_TOL},
        passed=passed,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Gaussian CLTs (types A, B regime 1, D)


def clt_gaussian_check(
    theorem: str,
    n: int,
    strength: float,
    t: float,
    *,
    nu: float | None = None,
    count: int = DEFAULT_COUNT,
    seed: int,
    start=None,
    steps: int | None = None,
) -> VerificationReport:
    """Centered samples match the limiting Gaussian N(0, t*Sigma).

    Without ``start`` the matrix models draw exact start-0 samples (method
    "exact"); with a start point SDE paths run from it for ``steps`` steps
    (method "sde"), exercising the fixed-start statements; ``steps`` without
    ``start`` is refused, and a starting law goes to
    ``start_distribution_check``.  The report is named ``clt-<theorem>``,
    suffixed ``-sde`` for SDE endpoints.
    """
    regime = _gaussian_regime(theorem, n, strength, nu)
    start = None if start is None else np.asarray(start, dtype=float)
    batch = _draw(regime.spec, t, count, seed, start, steps)
    method = "exact" if start is None else "sde"
    parameters = {"n": n, "strength": strength, "nu": nu, "t": t, "count": count, "method": method,
                  "start": None if start is None else start.tolist()}
    if start is not None:
        parameters["steps"] = batch.diagnostics.extra["steps"]
    name = f"clt-{theorem}" if start is None else f"clt-{theorem}-sde"
    return _battery_report(name, regime, batch, parameters, seed, method=method)


# ---------------------------------------------------------------------------
# B regime 2: large axis multiplicity turns B into a shifted A process


def clt_type_a_limit_check(
    n: int,
    k1: float,
    k2: float,
    t: float,
    *,
    count: int = DEFAULT_COUNT,
    seed: int,
) -> VerificationReport:
    """B-samples shifted by sqrt(2*t*k1) match the A-law at time t/2 with k = k2.

    Two-sample per-coordinate KS plus an energy-distance permutation test.
    """
    seed_b, seed_a, seed_perm = _spawn_seeds(seed, 3)
    batch_b = _draw(RootSystemSpec.b(n, k1, k2), t, count, seed_b)
    batch_a = _draw(RootSystemSpec.a(n, k2), 0.5 * t, count, seed_a)
    report = two_sample_agreement(
        batch_b.points - math.sqrt(2.0 * t * k1), batch_a.points,
        name="clt-B2-shifted-A",
        parameters={"n": n, "k1": k1, "k2": k2, "t": t, "count": count},
        seed=seed_perm,
    )
    # the report records the caller's seed, from which seed_perm derives
    return replace(report, seed=seed)


# ---------------------------------------------------------------------------
# D-related one-sided limits


def one_sided_check(
    n: int,
    k2: float,
    t: float,
    *,
    k1: float = 0.0,
    count: int = DEFAULT_COUNT,
    seed: int,
) -> VerificationReport:
    """Half-space limit of B-type laws with large pair multiplicity.

    FreezingRegime B3 keeps the passed k1 fixed; the report is named
    ``one-sided-B0`` at k1 = 0, the zero-axis regime, and ``one-sided-B3``
    otherwise.  The batch is centered by sqrt(k2 t) times the D-type target
    (last coordinate zero), then (a) the centered last coordinate must be
    nonnegative for every sample, (b) it is KS-tested against
    sqrt(t * Sigma_D[n-1, n-1]) times chi with 2*k1 + 1 degrees of freedom,
    the law of the last diagonal entry of the bidiagonal Laguerre model
    (``fixed_axis_ks_p``), and (c) the first n-1 coordinates run the
    Gaussian battery against the matching block of N(0, t*Sigma_D).

    At k1 = 0 the law in (b) is the half-normal with variance
    t * Sigma_D[n-1, n-1].  That half-normal KS p-value is also reported for
    every k1 (``half_normal_ks_p``); at k1 > 0 it records that the zero-axis
    limit does not hold, and it does not enter ``passed``.
    """
    if n < 2:
        raise ValueError("one-sided regimes need n >= 2")
    limit = FreezingRegime.from_theorem("B3", n, k2, k1=k1)
    sigma_d = limit.sigma
    batch = _draw(limit.spec, t, count, seed)
    centered = limit.center(batch.points, t)
    last = centered[:, -1]
    violations = int(np.count_nonzero(last < 0))
    scale = math.sqrt(t * sigma_d[n - 1, n - 1])
    dof = 2.0 * k1 + 1.0
    _, p_axis = ks_test_cdf(last, lambda x: chi_square_cdf((np.maximum(x, 0.0) / scale) ** 2, dof))
    _, p_half = ks_test_cdf(last, lambda x: half_normal_cdf(x, scale))
    head_stats, head_passed = gaussian_battery(centered[:, : n - 1], t, sigma_d[: n - 1, : n - 1])
    passed = violations == 0 and p_axis > P_THRESHOLD and head_passed
    return VerificationReport(
        name="one-sided-B0" if k1 == 0 else "one-sided-B3",
        parameters={"n": n, "k1": k1, "k2": k2, "t": t, "count": count},
        statistics={
            "half_space_violations": violations,
            "fixed_axis_ks_p": float(p_axis),
            "half_normal_ks_p": float(p_half),
            "last_coordinate_variance": float(t * sigma_d[n - 1, n - 1]),
            "head": head_stats,
        },
        tolerances=dict(_BATTERY_TOLERANCES),
        passed=passed,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# start distributions and cross-sample agreement


def start_distribution_check(
    n: int,
    nu: float,
    beta: float,
    t: float,
    mu: StartDistribution,
    *,
    count: int = DEFAULT_COUNT,
    steps: int | None = None,
    seed: int,
) -> VerificationReport:
    """The Gaussian limit is insensitive to the (interior) starting law.

    The report is named ``start-distribution-B1-<kind>`` after ``mu.kind``.
    """
    regime = FreezingRegime.from_theorem("B1", n, beta, nu=nu)
    batch = _draw(regime.spec, t, count, seed, mu, steps)
    parameters = {"n": n, "nu": nu, "beta": beta, "t": t, "count": count, "start_kind": mu.kind,
                  "steps": batch.diagnostics.extra["steps"]}
    return _battery_report(f"start-distribution-B1-{mu.kind}", regime, batch, parameters, seed, start_kind=mu.kind)


def two_sample_agreement(
    points_a: np.ndarray,
    points_b: np.ndarray,
    *,
    name: str,
    parameters: dict,
    seed: int,
) -> VerificationReport:
    """Per-coordinate KS plus energy-distance agreement between two batches."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("batches must be 2-d with matching width")
    p_coord = [float(ks_test_two_sample(a[:, i], b[:, i])[1]) for i in range(a.shape[1])]
    _, p_energy = energy_distance_test(a, b, n_permutations=N_PERMUTATIONS, seed=seed)
    passed = all(p > P_THRESHOLD for p in p_coord) and p_energy > P_THRESHOLD
    return VerificationReport(
        name=name,
        parameters=parameters,
        statistics={"per_coordinate_ks_p": p_coord, "energy_p": float(p_energy)},
        tolerances={"p_threshold": P_THRESHOLD, "n_permutations": N_PERMUTATIONS},
        passed=passed,
        seed=seed,
    )


def translation_invariance_check(
    n: int,
    k: float,
    t: float,
    c: float,
    x0,
    *,
    paths: int = 4000,
    steps: int | None = None,
    seed: int,
) -> VerificationReport:
    """A-type diagonal-shift invariance: endpoints from x0 + c*1, shifted back,
    must match endpoints from x0 in law.

    For c = 0 the same seed is reused and the two endpoint sets are identical;
    otherwise two independent streams are compared with per-coordinate KS
    tests (Bonferroni-adjusted minimum p-value).
    """
    spec = RootSystemSpec.a(n, k)
    x0 = np.asarray(x0, dtype=float)
    seeds = (seed, seed) if c == 0.0 else _spawn_seeds(seed, 2)
    batch_ref = _draw(spec, t, paths, seeds[0], x0, steps)
    moved_back = _draw(spec, t, paths, seeds[1], x0 + c, steps).points - c
    if c == 0.0 and np.array_equal(batch_ref.points, moved_back):
        p_combined = 1.0
        stats = {"identical": True, "p_value": 1.0}
    else:
        p_vals = [ks_test_two_sample(batch_ref.points[:, i], moved_back[:, i])[1] for i in range(n)]
        p_combined = min(1.0, n * min(p_vals))
        stats = {"identical": False, "p_value": p_combined, "per_coordinate_p": p_vals}
    return VerificationReport(
        name="translation-invariance-A",
        parameters={"n": n, "k": k, "t": t, "c": c, "x0": list(x0), "paths": paths,
                    "steps": batch_ref.diagnostics.extra["steps"]},
        statistics=stats,
        tolerances={"p_value": P_THRESHOLD},
        passed=p_combined > P_THRESHOLD,
        seed=seed,
    )


def calibration_check(
    theorem: str,
    n: int,
    strength: float,
    t: float,
    *,
    nu: float | None = None,
    count: int = DEFAULT_COUNT,
    seed: int,
) -> VerificationReport:
    """False-positive control: the battery on true N(0, t*Sigma) draws.

    Synthetic batches sqrt(m t)*target + N(0, t*Sigma) are exactly the limit
    law, so the battery should pass on at least ``CALIBRATION_MIN_PASSES`` of
    ``CALIBRATION_SEEDS`` independent seeds.
    """
    count = _as_count(count, "count")
    _as_time(t)
    regime = _gaussian_regime(theorem, n, strength, nu)
    chol = np.linalg.cholesky(t * regime.sigma)
    outcomes = []
    for child in np.random.SeedSequence(_as_seed(seed)).spawn(CALIBRATION_SEEDS):
        rng = np.random.default_rng(child)
        centered = rng.standard_normal((count, n)) @ chol.T
        _, ok = gaussian_battery(centered, t, regime.sigma)
        outcomes.append(bool(ok))
    passes = int(sum(outcomes))
    return VerificationReport(
        name=f"calibration-{theorem}",
        parameters={"theorem": theorem, "n": n, "strength": strength, "t": t,
                    "count": count, "n_seeds": CALIBRATION_SEEDS},
        statistics={"passes": passes, "outcomes": outcomes},
        tolerances={"min_passes": CALIBRATION_MIN_PASSES},
        passed=passes >= CALIBRATION_MIN_PASSES,
        seed=seed,
    )


def covariance_error_trend(
    theorem: str,
    n: int,
    t: float,
    *,
    nu: float | None = None,
    count: int = DEFAULT_COUNT,
    seed: int,
) -> VerificationReport:
    """Covariance Frobenius error does not grow with the multiplicity.

    The sweep runs over ``TREND_STRENGTHS``.  Pass iff the error at the
    largest strength is at most the error at the smallest plus twice the
    Monte Carlo noise floor of the estimator.
    """
    errors = []
    seeds = _spawn_seeds(seed, len(TREND_STRENGTHS))
    for s, child in zip(TREND_STRENGTHS, seeds):
        regime = _gaussian_regime(theorem, n, s, nu)
        batch = _draw(regime.spec, t, count, child)
        stats, _ = gaussian_battery(regime.center(batch.points, t), t, regime.sigma)
        errors.append(stats["cov_frobenius_rel_err"])
    tsig = t * regime.sigma  # Sigma depends on the theorem and n, not on the strength
    noise = math.sqrt((np.trace(tsig) ** 2 + np.linalg.norm(tsig) ** 2) / count) / np.linalg.norm(tsig)
    passed = errors[-1] <= errors[0] + 2.0 * noise
    return VerificationReport(
        name=f"cov-error-trend-{theorem}",
        parameters={"theorem": theorem, "n": n, "t": t, "strengths": list(TREND_STRENGTHS), "count": count},
        statistics={"cov_errors": errors, "mc_noise": float(noise)},
        tolerances={"rule": "err(largest) <= err(smallest) + 2*mc_noise"},
        passed=passed,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# deterministic identity reports


# the log_norm_constant family of each root kind
_NORM_FAMILY = {RootKind.A: "cA", RootKind.B: "cB", RootKind.D: "cD"}
# the identity grids' axis ratios nu
_NU_GRID = (0.5, 1.0, 2.5)
# the identity tolerances; the stationarity residual's is the 1e-10 gate of equilibria.freezing_target
_DETERMINANT_TOL = 1e-8
_POTENTIAL_TOL = 1e-9
_QUADRATURE_TOL = 1e-6  # what the quadrature's rtol supports
_PROOF_TOL = 5e-3
# a proof constant's errors may rise by rounding: the exact-constant cases (e.g. tildeA at n = 1) sit there
_PROOF_SLACK = 1e-12


def _worst_of_grid(name: str, parameters: dict, values, key: str, tol: float, **flags) -> VerificationReport:
    """One report for a grid: the worst ``key`` (NaN if any is) below ``tol``, and every flag true."""
    worst = float(np.max(list(values)))
    return VerificationReport(name, parameters, {f"max_{key}": worst, **flags}, {key: tol},
                              passed=worst < tol and all(flags.values()))


def identity_reports(
    *,
    n_max_det: int = 12,
    n_max_residual: int = 50,
    n_max_potential: int = 30,
    tilde_n_max: int = 6,
) -> list[VerificationReport]:
    """All closed-form checks: determinants, residuals, potentials, constants."""
    targets = [(RootKind.A, None), *((RootKind.B, nu) for nu in (0.1, 0.5, 1.0, 2.5, 10.0)), (RootKind.D, None)]
    potentials = [("A_at_half", None), ("A_sumsq", None), *((k, nu) for nu in _NU_GRID for k in ("B_full", "B_norm"))]
    quad_specs = [spec for i in (1, 2) for spec in (
        *(RootSystemSpec.a(i, k) for k in (0.5, 1.0, 2.5)),
        *(RootSystemSpec.b(i, k1, k2) for k1, k2 in ((0.5, 0.5), (1.0, 1.0), (2.5, 0.5))),
        *(RootSystemSpec.d(i, k) for k in (0.5, 1.0, 2.5) if i >= 2),
    )]

    def quadrature_rel_err(spec: RootSystemSpec) -> float:
        integral = chamber_weight_integral(spec)
        family = _NORM_FAMILY[spec.kind]
        log_c = log_norm_constant(family, **{f: getattr(spec, f) for f in _FAMILY_PARAMS[family]})
        return abs(integral * math.exp(log_c) - 1.0)

    proofs = {
        family: [proof_constant_limit(family, n=i, nu=nu) for i in range(1, tilde_n_max + 1)]
        for family, nu in (("tildeA", None), ("tildeB", 1.0))
    }
    return [
        _worst_of_grid(
            "determinant-identity-A", {"n_max": n_max_det},
            (determinant_identity(RootKind.A, i) for i in range(1, n_max_det + 1)),
            "rel_err", _DETERMINANT_TOL,
        ),
        _worst_of_grid(
            "determinant-identity-B", {"n_max": n_max_det, "nu_grid": list(_NU_GRID)},
            (determinant_identity(RootKind.B, i, nu)
             for i in range(1, n_max_det + 1) for nu in _NU_GRID),
            "rel_err", _DETERMINANT_TOL,
        ),
        _worst_of_grid(
            "stationarity-residuals", {"n_max": n_max_residual},
            (freezing_target(kind, i, nu).residual
             for i in range(1, n_max_residual + 1) for kind, nu in targets if kind is not RootKind.D or i >= 2),
            "residual", _RESIDUAL_TOL,
        ),
        _worst_of_grid(
            "potential-identities", {"n_max": n_max_potential, "nu_grid": list(_NU_GRID)},
            (potential_identity_check(kind, i, nu)
             for i in range(1, n_max_potential + 1) for kind, nu in potentials),
            "abs_err", _POTENTIAL_TOL,
        ),
        _worst_of_grid(
            "normalization-vs-quadrature", {"n_values": [1, 2], "settings": len(quad_specs)},
            map(quadrature_rel_err, quad_specs), "rel_err", _QUADRATURE_TOL,
        ),
        *(
            _worst_of_grid(
                f"proof-constant-limit-{family}", {"n_max": tilde_n_max},
                (errs[-1] for errs in grids), "final_rel_err", _PROOF_TOL,
                # each n's errors non-increasing along the grid
                monotone=all(b <= a + _PROOF_SLACK for errs in grids for a, b in zip(errs, errs[1:])),
            )
            for family, grids in proofs.items()
        ),
    ]


# ---------------------------------------------------------------------------
# suites


def _start_point(n: int) -> np.ndarray:
    # Keep fixed starts close to the origin: by the Ito identity for
    # E|x_t|^2 a start x0 leaves a permanent |x0|^2 excess in the second
    # moment, so large starts shift the centered mean at finite beta.
    return 0.2 * np.arange(n, 0, -1, dtype=float)


def _b1_start_agreement(n, beta, t, *, nu, start, steps, count, seed) -> VerificationReport:
    """Centered exact start-0 draws against centered SDE endpoints from ``start``.

    ``seed`` holds three streams: exact draws, SDE paths and permutations.
    """
    seed_exact, seed_sde, seed_perm = seed
    regime = FreezingRegime.from_theorem("B1", n, beta, nu=nu)
    batch_e = _draw(regime.spec, t, count, seed_exact)
    batch_s = _draw(regime.spec, t, count, seed_sde, start, steps)
    return two_sample_agreement(
        regime.center(batch_e.points, t), regime.center(batch_s.points, t),
        name="clt-B1-start-agreement",
        parameters={"n": n, "beta": beta, "nu": nu, "t": t, "count": count,
                    "steps": batch_s.diagnostics.extra["steps"]},
        seed=seed_perm,
    )


@dataclass(frozen=True)
class SuiteRow:
    """One check of a named suite: ``run_suite`` calls ``check(**args)``.

    Quick mode merges ``quick`` into ``args``; ``takes`` maps each override
    the row accepts ("n", "strength", "n_max") to the arguments it replaces;
    a callable argument is replaced by its value at the row's n.  A
    randomized row (``streams`` > 0) also gets ``t``, ``count`` and ``seed``,
    a list of seeds when ``streams`` > 1.
    """

    suite: str
    check: Callable
    args: dict
    quick: dict = field(default_factory=dict)
    takes: dict = field(default_factory=lambda: {"n": ("n",), "strength": ("strength",)})
    full_only: bool = False
    streams: int = 1


def _strength_as(keyword: str) -> dict:
    return {"n": ("n",), "strength": (keyword,)}


# SDE rows keep full step resolution in quick mode, which cuts only paths: at
# strong coupling the drift needs h <= ~5e-4 before the step bias clears the
# battery
_B1_SDE = {"start": lambda n: np.linspace(n, 1, n) / 2.0, "steps": 2000}
_STARTS = (
    lambda n: StartDistribution.at_point(_start_point(n)),
    lambda n: StartDistribution.uniform(0.9 * _start_point(n), 1.1 * _start_point(n)),
    lambda n: StartDistribution.mixture(np.stack([_start_point(n), 1.5 * _start_point(n)]), [0.5, 0.5]),
)
_LLN_QUICK = {"strength": 2000.0}

SUITE_TABLE = (
    SuiteRow("identities", identity_reports, {},
             {"n_max_det": 8, "n_max_residual": 12, "n_max_potential": 12, "tilde_n_max": 3},
             takes={"n_max": ("n_max_det", "n_max_residual", "n_max_potential")}, streams=0),
    SuiteRow("lln", lln_check, {"regime": "A", "n": 2, "strength": 10_000.0}, _LLN_QUICK),
    SuiteRow("lln", lln_check, {"regime": "B", "n": 2, "strength": 10_000.0, "nu": 1.0}, _LLN_QUICK),
    SuiteRow("lln", lln_check, {"regime": "B3", "n": 2, "strength": 10_000.0, "k1": 1.0}, _LLN_QUICK),
    SuiteRow("clt-a", clt_gaussian_check, {"theorem": "A", "n": 3, "strength": 200.0}),
    SuiteRow("clt-a", covariance_error_trend, {"theorem": "A", "n": 3}, takes={"n": ("n",)}, full_only=True),
    SuiteRow("clt-b1", clt_gaussian_check, {"theorem": "B1", "n": 2, "strength": 200.0, "nu": 1.0}),
    SuiteRow("clt-b1", clt_gaussian_check, {"theorem": "B1", "n": 2, "strength": 200.0, "nu": 1.0, **_B1_SDE},
             full_only=True),
    SuiteRow("clt-b1", _b1_start_agreement, {"n": 2, "beta": 200.0, "nu": 1.0, **_B1_SDE},
             takes=_strength_as("beta"), full_only=True, streams=3),
    SuiteRow("clt-b2", clt_type_a_limit_check, {"n": 2, "k1": 5000.0, "k2": 1.0}, takes=_strength_as("k1")),
    SuiteRow("clt-d", clt_gaussian_check, {"theorem": "D", "n": 2, "strength": 200.0}),
    SuiteRow("one-sided", one_sided_check, {"n": 2, "k2": 200.0}, takes=_strength_as("k2")),
    SuiteRow("one-sided", one_sided_check, {"n": 2, "k2": 200.0, "k1": 1.0}, takes=_strength_as("k2")),
    *(SuiteRow("start-dist", start_distribution_check, {"n": 2, "nu": 1.0, "beta": 200.0, "mu": mu, "steps": 2000},
               takes=_strength_as("beta"), full_only=i > 0) for i, mu in enumerate(_STARTS)),
)

SUITES = (*dict.fromkeys(row.suite for row in SUITE_TABLE), "all")


def run_suite(
    suite: str,
    *,
    seed: int | None = None,
    quick: bool = False,
    n: int | None = None,
    strength: float | None = None,
    t: float = 1.0,
    n_max: int | None = None,
) -> list[VerificationReport]:
    """Run one named verification suite and return its reports.

    "all" runs every suite in ``SUITES`` order.  Every randomized suite
    requires an explicit seed; "identities" is fully deterministic and exempt.
    ``quick`` shrinks sample counts and grids so a full pass stays in the
    minutes range.  ``n`` and ``strength`` override the randomized checks and
    ``n_max`` the identity grids, and ``t`` sets the time of the randomized
    rows.  An override that a selected row does not take raises ValueError,
    and so does a ``t`` that is not positive, or other than 1.0 when no
    selected row is randomized, and a ``seed`` that is not an integer >= 0.
    Every draw runs at the thread defaults of ``sample_exact`` and
    ``SdeConfig``; a thread count changes no report byte, so suites take none.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    seed = None if seed is None else _as_seed(seed)
    n_max = None if n_max is None else _as_count(n_max, "n_max")
    overrides = {key: value for key, value in (("n", n), ("strength", strength), ("n_max", n_max))
                 if value is not None}
    plan, next_stream = [], dict.fromkeys(SUITES, 0)
    for row in SUITE_TABLE:  # a row keeps its streams whether or not this run selects it
        if suite in ("all", row.suite) and not (quick and row.full_only):
            plan.append((row, next_stream[row.suite]))
        next_stream[row.suite] += row.streams
    for row, _ in plan:
        refused = [key for key in overrides if key not in row.takes]
        if refused:
            raise ValueError(f"{row.check.__name__} in suite {row.suite!r} takes no {', '.join(refused)} override")
    randomized = any(row.streams for row, _ in plan)
    _as_time(t)
    if t != 1.0 and not randomized:
        raise ValueError(f"suite {suite!r} draws no samples and takes no t override")
    if seed is None and randomized:
        raise ValueError(f"suite {suite!r} is randomized: pass --seed for a reproducible run")
    count = _QUICK_COUNT if quick else DEFAULT_COUNT
    reports: list[VerificationReport] = []
    for row, first in plan:
        args = {**row.args, **(row.quick if quick else {})}
        for key, value in overrides.items():
            args.update(dict.fromkeys(row.takes[key], value))
        args = {key: value(args["n"]) if callable(value) else value for key, value in args.items()}
        if row.streams:
            seeds = _spawn_seeds([seed, zlib.crc32(row.suite.encode())], first + row.streams)[first:]
            args.update(t=t, count=count, seed=seeds[0] if row.streams == 1 else seeds)
        result = row.check(**args)
        reports.extend(result if isinstance(result, list) else [result])
    return reports
