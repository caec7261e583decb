"""Statistical verification of the freezing limit theorems.

Each check turns one limit statement into a concrete test on a finite sample
batch and returns a VerificationReport.  The Gaussian battery used throughout
consists of

* a mean check: the empirical mean norm must stay within 3 standard errors,
* a covariance check: Frobenius relative error against t*Sigma below 5%,
* a KS test of squared Mahalanobis norms against chi-square with N dof,
* per-coordinate KS tests against the Gaussian marginals.

Thresholds (p > 0.01, 5% covariance error) are tuned for 20,000-sample runs
and are arguments, not constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RootKind, RootSystemSpec
from .equilibria import freezing_target, potential_identity_check, stationarity_residual
from .gaussian import (
    covariance,
    determinant_identity,
    log_norm_constant,
    precision_matrix,
    proof_constant_limit,
)
from .quadrature import chamber_weight_integral
from .report import VerificationReport
from .sampling import _spawn_seeds, sample_exact, sample_metropolis
from .sde import SdeConfig, StartDistribution, simulate_endpoints
from .stat_tests import (
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
    "DEFAULT_COUNT",
    "FreezingRegime",
    "gaussian_battery",
    "lln_check",
    "clt_gaussian_check",
    "clt_type_a_limit_check",
    "one_sided_check",
    "start_distribution_check",
    "two_sample_agreement",
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


@dataclass(frozen=True)
class FreezingRegime:
    """The centering data of one freezing limit: scale m, target, covariance.

    Samples are centered as  points - sqrt(m * t) * target  and compared to
    N(0, t * sigma).
    """

    spec: RootSystemSpec
    m: float
    target: np.ndarray
    sigma: np.ndarray

    @classmethod
    def from_theorem(cls, theorem: str, n: int, strength: float, *, nu: float | None = None):
        """Regimes: A (strength = k), B1 (strength = beta, nu > 0), D (strength = k)."""
        if theorem == "A":
            spec = RootSystemSpec.a(n, strength)
            target = freezing_target(RootKind.A, n).coords
            sigma = covariance(precision_matrix(RootKind.A, n))
            return cls(spec, 2.0 * strength, target, sigma)
        if theorem == "B1":
            if nu is None or nu <= 0:
                raise ValueError("theorem B1 needs nu > 0 (nu = 0 is the one-sided regime)")
            spec = RootSystemSpec.b(n, nu * strength, strength)
            target = freezing_target(RootKind.B, n, nu).coords
            sigma = covariance(precision_matrix(RootKind.B, n, nu))
            return cls(spec, float(strength), target, sigma)
        if theorem == "D":
            spec = RootSystemSpec.d(n, strength)
            target = freezing_target(RootKind.D, n).coords
            sigma = covariance(precision_matrix(RootKind.D, n))
            return cls(spec, float(strength), target, sigma)
        raise ValueError(f"unknown theorem tag {theorem!r}")

    def center(self, points: np.ndarray, t: float) -> np.ndarray:
        return points - math.sqrt(self.m * t) * self.target


# ---------------------------------------------------------------------------
# the Gaussian battery


def gaussian_battery(
    centered: np.ndarray,
    t: float,
    sigma: np.ndarray,
    *,
    p_threshold: float = P_THRESHOLD,
    cov_rel_tol: float = COV_REL_TOL,
    mean_sigma_mult: float = MEAN_SIGMA_MULT,
) -> tuple[dict, bool]:
    """Run the four-part Gaussian test battery on already-centered samples."""
    pts = np.asarray(centered, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d batch")
    count, n = pts.shape
    tsig = t * np.asarray(sigma, dtype=float)
    mean = pts.mean(axis=0)
    mean_norm = float(np.linalg.norm(mean))
    mean_limit = mean_sigma_mult * math.sqrt(np.trace(tsig) / count)
    emp = np.cov(pts, rowvar=False).reshape(n, n)
    cov_err = float(np.linalg.norm(emp - tsig) / np.linalg.norm(tsig))
    maha = mahalanobis_sq(pts, tsig)
    _, p_maha = ks_test_cdf(maha, lambda q: chi_square_cdf(q, n))
    p_coord = []
    for i in range(n):
        _, p_i = ks_test_cdf(pts[:, i], lambda x, s=math.sqrt(tsig[i, i]): normal_cdf(x, s))
        p_coord.append(float(p_i))
    passed = (
        mean_norm < mean_limit
        and cov_err < cov_rel_tol
        and p_maha > p_threshold
        and all(p > p_threshold for p in p_coord)
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


def _battery_tolerances(p_threshold=P_THRESHOLD, cov_rel_tol=COV_REL_TOL) -> dict:
    return {
        "p_threshold": p_threshold,
        "cov_rel_tol": cov_rel_tol,
        "mean_sigma_mult": MEAN_SIGMA_MULT,
    }


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
    seed: int = 0,
    threads: int | None = None,
    tol: float = 0.05,
) -> VerificationReport:
    """Scaled samples concentrate at the freezing target.

    Regimes: "A" (strength = k), "B" (strength = beta with nu fixed),
    "B3" (strength = k2 with k1 fixed; D-type target).
    """
    if regime == "A":
        spec = RootSystemSpec.a(n, strength)
        m = 2.0 * strength
        target = freezing_target(RootKind.A, n).coords
    elif regime == "B":
        if nu is None or nu < 0:
            raise ValueError("regime B needs nu >= 0")
        spec = RootSystemSpec.b(n, nu * strength, strength)
        m = float(strength)
        target = freezing_target(RootKind.B, n, nu).coords
    elif regime == "B3":
        if k1 is None or k1 < 0:
            raise ValueError("regime B3 needs fixed k1 >= 0")
        spec = RootSystemSpec.b(n, k1, strength)
        m = float(strength)
        target = freezing_target(RootKind.B, n, 0.0).coords
    else:
        raise ValueError(f"unknown LLN regime {regime!r}")
    batch = sample_exact(spec, t, count, seed, threads=threads)
    scaled = batch.points / math.sqrt(m * t)
    mean_dev = float(np.max(np.abs(scaled.mean(axis=0) - target)))
    sup_dev = np.max(np.abs(scaled - target), axis=1)
    q95 = float(np.quantile(sup_dev, 0.95))
    passed = mean_dev < tol and q95 < tol
    return VerificationReport(
        name=f"lln-{regime}",
        parameters={"n": n, "strength": strength, "t": t, "nu": nu, "k1": k1, "count": count},
        statistics={"max_mean_deviation": mean_dev, "sup_norm_q95": q95},
        tolerances={"tol": tol},
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
    seed: int = 0,
    method: str = "exact",
    start=None,
    steps: int | None = None,
    threads: int | None = None,
    p_threshold: float = P_THRESHOLD,
    cov_rel_tol: float = COV_REL_TOL,
) -> VerificationReport:
    """Centered samples match the limiting Gaussian N(0, t*Sigma).

    method "exact" draws start-0 samples from the matrix models, "metropolis"
    from the density sampler, and "sde" simulates paths from ``start`` (a
    point or a StartDistribution), exercising the fixed-start statements.
    """
    regime = FreezingRegime.from_theorem(theorem, n, strength, nu=nu)
    if method == "exact":
        batch = sample_exact(regime.spec, t, count, seed, threads=threads)
    elif method == "metropolis":
        batch = sample_metropolis(regime.spec, t, count, seed)
    elif method == "sde":
        if start is None:
            raise ValueError("method 'sde' needs a start point or StartDistribution")
        x0 = start if isinstance(start, StartDistribution) else StartDistribution.at_point(start)
        cfg = SdeConfig(spec=regime.spec, x0=x0, t=t, seed=seed, steps=steps, paths=count, threads=threads)
        batch = simulate_endpoints(cfg)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    stats, passed = gaussian_battery(
        regime.center(batch.points, t), t, regime.sigma,
        p_threshold=p_threshold, cov_rel_tol=cov_rel_tol,
    )
    stats["method"] = method
    return VerificationReport(
        name=f"clt-{theorem}",
        parameters={
            "n": n, "strength": strength, "nu": nu, "t": t, "count": count,
            "method": method, "start": None if start is None else np.asarray(
                start.point if isinstance(start, StartDistribution) else start).tolist(),
        },
        statistics=stats,
        tolerances=_battery_tolerances(p_threshold, cov_rel_tol),
        passed=passed,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# B regime 2: large axis multiplicity turns B into a shifted A process


def clt_type_a_limit_check(
    n: int,
    k1: float,
    k2: float,
    t: float,
    *,
    count: int = DEFAULT_COUNT,
    seed: int = 0,
    threads: int | None = None,
    p_threshold: float = P_THRESHOLD,
    n_permutations: int = 200,
) -> VerificationReport:
    """B-samples shifted by sqrt(2*t*k1) match the A-law at time t/2 with k = k2.

    Two-sample per-coordinate KS plus an energy-distance permutation test.
    """
    seed_b, seed_a, seed_perm = _spawn_seeds(seed, 3)
    spec_b = RootSystemSpec.b(n, k1, k2)
    batch_b = sample_exact(spec_b, t, count, seed_b, threads=threads)
    shifted = batch_b.points - math.sqrt(2.0 * t * k1)
    spec_a = RootSystemSpec.a(n, k2)
    batch_a = sample_exact(spec_a, 0.5 * t, count, seed_a, threads=threads)
    p_coord = [
        float(ks_test_two_sample(shifted[:, i], batch_a.points[:, i])[1]) for i in range(n)
    ]
    _, p_energy = energy_distance_test(shifted, batch_a.points, n_permutations=n_permutations, seed=seed_perm)
    passed = all(p > p_threshold for p in p_coord) and p_energy > p_threshold
    return VerificationReport(
        name="clt-B2-shifted-A",
        parameters={"n": n, "k1": k1, "k2": k2, "t": t, "count": count},
        statistics={"per_coordinate_ks_p": p_coord, "energy_p": float(p_energy)},
        tolerances={"p_threshold": p_threshold, "n_permutations": n_permutations},
        passed=passed,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# D-related one-sided limits


def one_sided_check(
    regime: str,
    n: int,
    k2: float,
    t: float,
    *,
    k1: float = 0.0,
    count: int = DEFAULT_COUNT,
    seed: int = 0,
    threads: int | None = None,
    p_threshold: float = P_THRESHOLD,
) -> VerificationReport:
    """Half-space limit of B-type laws with large pair multiplicity.

    Regime "B0" forces k1 = 0; regime "B3" keeps the passed k1 fixed.  The
    batch is centered by sqrt(k2 t) times the D-type target (last coordinate
    zero), then (a) the centered last coordinate must be nonnegative for
    every sample, (b) it is KS-tested against sqrt(t * Sigma_D[n-1, n-1])
    times chi with 2*k1 + 1 degrees of freedom, the law of the last diagonal
    entry of the bidiagonal Laguerre model (``fixed_axis_ks_p``), and (c) the
    first n-1 coordinates run the Gaussian battery against the matching block
    of N(0, t*Sigma_D).

    At k1 = 0 the law in (b) is the half-normal with variance
    t * Sigma_D[n-1, n-1].  That half-normal KS p-value is also reported for
    every k1 (``half_normal_ks_p``); at k1 > 0 it records that the zero-axis
    limit does not hold, and it does not enter ``passed``.
    """
    if n < 2:
        raise ValueError("one-sided regimes need n >= 2")
    if regime == "B0":
        k1 = 0.0
    elif regime != "B3":
        raise ValueError(f"unknown one-sided regime {regime!r}")
    spec = RootSystemSpec.b(n, k1, k2)
    target = freezing_target(RootKind.B, n, 0.0).coords
    sigma_d = covariance(precision_matrix(RootKind.D, n))
    batch = sample_exact(spec, t, count, seed, threads=threads)
    centered = batch.points - math.sqrt(k2 * t) * target
    last = centered[:, -1]
    violations = int(np.count_nonzero(last < 0))
    scale = math.sqrt(t * sigma_d[n - 1, n - 1])
    dof = 2.0 * k1 + 1.0
    _, p_axis = ks_test_cdf(last, lambda x: chi_square_cdf((np.maximum(x, 0.0) / scale) ** 2, dof))
    _, p_half = ks_test_cdf(last, lambda x: half_normal_cdf(x, scale))
    head_stats, head_passed = gaussian_battery(
        centered[:, : n - 1], t, sigma_d[: n - 1, : n - 1], p_threshold=p_threshold
    )
    passed = violations == 0 and p_axis > p_threshold and head_passed
    return VerificationReport(
        name=f"one-sided-{regime}",
        parameters={"n": n, "k1": k1, "k2": k2, "t": t, "count": count},
        statistics={
            "half_space_violations": violations,
            "fixed_axis_ks_p": float(p_axis),
            "half_normal_ks_p": float(p_half),
            "last_coordinate_variance": float(t * sigma_d[n - 1, n - 1]),
            "head": head_stats,
        },
        tolerances=_battery_tolerances(p_threshold),
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
    seed: int = 0,
    threads: int | None = None,
    p_threshold: float = P_THRESHOLD,
) -> VerificationReport:
    """The Gaussian limit is insensitive to the (interior) starting law."""
    regime = FreezingRegime.from_theorem("B1", n, beta, nu=nu)
    cfg = SdeConfig(spec=regime.spec, x0=mu, t=t, seed=seed, steps=steps, paths=count, threads=threads)
    batch = simulate_endpoints(cfg)
    stats, passed = gaussian_battery(regime.center(batch.points, t), t, regime.sigma, p_threshold=p_threshold)
    stats["start_kind"] = mu.kind
    return VerificationReport(
        name="start-distribution-B1",
        parameters={"n": n, "nu": nu, "beta": beta, "t": t, "count": count, "start_kind": mu.kind},
        statistics=stats,
        tolerances=_battery_tolerances(p_threshold),
        passed=passed,
        seed=seed,
    )


def two_sample_agreement(
    points_a: np.ndarray,
    points_b: np.ndarray,
    *,
    name: str,
    parameters: dict,
    seed: int = 0,
    p_threshold: float = P_THRESHOLD,
    n_permutations: int = 200,
) -> VerificationReport:
    """Per-coordinate KS plus energy-distance agreement between two batches."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("batches must be 2-d with matching width")
    p_coord = [float(ks_test_two_sample(a[:, i], b[:, i])[1]) for i in range(a.shape[1])]
    _, p_energy = energy_distance_test(a, b, n_permutations=n_permutations, seed=seed)
    passed = all(p > p_threshold for p in p_coord) and p_energy > p_threshold
    return VerificationReport(
        name=name,
        parameters=parameters,
        statistics={"per_coordinate_ks_p": p_coord, "energy_p": float(p_energy)},
        tolerances={"p_threshold": p_threshold, "n_permutations": n_permutations},
        passed=passed,
        seed=seed,
    )


def calibration_check(
    theorem: str = "A",
    n: int = 3,
    strength: float = 200.0,
    t: float = 1.0,
    *,
    nu: float | None = None,
    count: int = DEFAULT_COUNT,
    n_seeds: int = 20,
    min_passes: int = 19,
    seed: int = 0,
) -> VerificationReport:
    """False-positive control: the battery on true N(0, t*Sigma) draws.

    Synthetic batches sqrt(m t)*target + N(0, t*Sigma) are exactly the limit
    law, so the battery should pass on at least ``min_passes`` of ``n_seeds``
    independent seeds.
    """
    regime = FreezingRegime.from_theorem(theorem, n, strength, nu=nu)
    chol = np.linalg.cholesky(t * regime.sigma)
    outcomes = []
    for child in np.random.SeedSequence(int(seed)).spawn(n_seeds):
        rng = np.random.default_rng(child)
        centered = rng.standard_normal((count, n)) @ chol.T
        _, ok = gaussian_battery(centered, t, regime.sigma)
        outcomes.append(bool(ok))
    passes = int(sum(outcomes))
    return VerificationReport(
        name=f"calibration-{theorem}",
        parameters={"theorem": theorem, "n": n, "strength": strength, "t": t,
                    "count": count, "n_seeds": n_seeds},
        statistics={"passes": passes, "outcomes": outcomes},
        tolerances={"min_passes": min_passes},
        passed=passes >= min_passes,
        seed=seed,
    )


def covariance_error_trend(
    theorem: str = "A",
    n: int = 3,
    t: float = 1.0,
    *,
    strengths: tuple = (50.0, 200.0, 800.0),
    nu: float | None = None,
    count: int = DEFAULT_COUNT,
    seed: int = 0,
    threads: int | None = None,
) -> VerificationReport:
    """Covariance Frobenius error does not grow with the multiplicity.

    Pass iff the error at the largest strength is at most the error at the
    smallest plus twice the Monte Carlo noise floor of the estimator.
    """
    errors = []
    seeds = _spawn_seeds(seed, len(strengths))
    sigma = None
    for s, child in zip(strengths, seeds):
        regime = FreezingRegime.from_theorem(theorem, n, s, nu=nu)
        sigma = regime.sigma
        batch = sample_exact(regime.spec, t, count, child, threads=threads)
        stats, _ = gaussian_battery(regime.center(batch.points, t), t, regime.sigma)
        errors.append(stats["cov_frobenius_rel_err"])
    tsig = t * sigma
    noise = math.sqrt((np.trace(tsig) ** 2 + np.linalg.norm(tsig) ** 2) / count) / np.linalg.norm(tsig)
    passed = errors[-1] <= errors[0] + 2.0 * noise
    return VerificationReport(
        name=f"cov-error-trend-{theorem}",
        parameters={"theorem": theorem, "n": n, "t": t, "strengths": list(strengths), "count": count},
        statistics={"cov_errors": errors, "mc_noise": float(noise)},
        tolerances={"rule": "err(largest) <= err(smallest) + 2*mc_noise"},
        passed=passed,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# deterministic identity reports


def identity_reports(
    *,
    n_max_det: int = 12,
    n_max_residual: int = 50,
    n_max_potential: int = 30,
    nu_grid: tuple = (0.5, 1.0, 2.5),
    quadrature_n: tuple = (1, 2),
    quadrature_rtol: float = 1e-8,
    tilde_n_max: int = 6,
) -> list[VerificationReport]:
    """All closed-form checks: determinants, residuals, potentials, constants."""
    reports: list[VerificationReport] = []

    worst_a = max(
        (determinant_identity(RootKind.A, i).statistics["rel_err"] for i in range(1, n_max_det + 1))
    )
    reports.append(VerificationReport(
        name="determinant-identity-A",
        parameters={"n_max": n_max_det},
        statistics={"max_rel_err": worst_a},
        tolerances={"rel_err": 1e-8},
        passed=worst_a < 1e-8,
        seed=None,
    ))
    worst_b = max(
        determinant_identity(RootKind.B, i, nu).statistics["rel_err"]
        for i in range(1, n_max_det + 1)
        for nu in nu_grid
    )
    reports.append(VerificationReport(
        name="determinant-identity-B",
        parameters={"n_max": n_max_det, "nu_grid": list(nu_grid)},
        statistics={"max_rel_err": worst_b},
        tolerances={"rel_err": 1e-8},
        passed=worst_b < 1e-8,
        seed=None,
    ))

    residuals = []
    for i in range(1, n_max_residual + 1):
        residuals.append(stationarity_residual(freezing_target(RootKind.A, i)))
        for nu in (0.1, 0.5, 1.0, 2.5, 10.0):
            residuals.append(stationarity_residual(freezing_target(RootKind.B, i, nu)))
        if i >= 2:
            residuals.append(stationarity_residual(freezing_target(RootKind.D, i)))
    worst_res = float(max(residuals))
    reports.append(VerificationReport(
        name="stationarity-residuals",
        parameters={"n_max": n_max_residual},
        statistics={"max_residual": worst_res},
        tolerances={"residual": 1e-10},
        passed=worst_res < 1e-10,
        seed=None,
    ))

    pot_reports = []
    for i in range(1, n_max_potential + 1):
        pot_reports.append(potential_identity_check("A_at_half", i))
        pot_reports.append(potential_identity_check("A_sumsq", i))
        for nu in nu_grid:
            pot_reports.append(potential_identity_check("B_full", i, nu))
            pot_reports.append(potential_identity_check("B_norm", i, nu))
    worst_pot = max(r.statistics["abs_diff"] for r in pot_reports)
    reports.append(VerificationReport(
        name="potential-identities",
        parameters={"n_max": n_max_potential, "nu_grid": list(nu_grid)},
        statistics={"max_abs_err": float(worst_pot)},
        tolerances={"abs_err": 1e-9},
        passed=all(r.passed for r in pot_reports),
        seed=None,
    ))

    quad_settings = []
    for i in quadrature_n:
        for k in (0.5, 1.0, 2.5):
            quad_settings.append(RootSystemSpec.a(i, k))
        for pair in ((0.5, 0.5), (1.0, 1.0), (2.5, 0.5)):
            quad_settings.append(RootSystemSpec.b(i, *pair))
        if i >= 2:
            for k in (0.5, 1.0, 2.5):
                quad_settings.append(RootSystemSpec.d(i, k))
    worst_quad = 0.0
    for spec in quad_settings:
        integral = chamber_weight_integral(spec, rtol=quadrature_rtol)
        if spec.kind is RootKind.A:
            log_c = log_norm_constant("cA", n=spec.n, k=spec.k).log_value
        elif spec.kind is RootKind.B:
            log_c = log_norm_constant("cB", n=spec.n, k1=spec.k1, k2=spec.k2).log_value
        else:
            log_c = log_norm_constant("cD", n=spec.n, k=spec.k).log_value
        rel = abs(integral * math.exp(log_c) - 1.0)
        worst_quad = max(worst_quad, rel)
    reports.append(VerificationReport(
        name="normalization-vs-quadrature",
        parameters={"n_values": list(quadrature_n), "settings": len(quad_settings)},
        statistics={"max_rel_err": worst_quad},
        tolerances={"rel_err": 1e-6},
        passed=worst_quad < 1e-6,
        seed=None,
    ))

    for family in ("tildeA", "tildeB"):
        worst_final = 0.0
        monotone = True
        for i in range(1, tilde_n_max + 1):
            rep = proof_constant_limit(family, n=i, nu=1.0 if family == "tildeB" else None)
            worst_final = max(worst_final, rep.statistics["final_rel_err"])
            monotone = monotone and rep.passed
        reports.append(VerificationReport(
            name=f"proof-constant-limit-{family}",
            parameters={"n_max": tilde_n_max},
            statistics={"max_final_rel_err": float(worst_final), "monotone": monotone},
            tolerances={"final_rel_err": 5e-3},
            passed=monotone and worst_final < 5e-3,
            seed=None,
        ))
    return reports


# ---------------------------------------------------------------------------
# suites


SUITES = ("identities", "lln", "clt-a", "clt-b1", "clt-b2", "clt-d", "one-sided", "start-dist", "all")


def run_suite(
    suite: str,
    *,
    seed: int | None = None,
    quick: bool = False,
    threads: int | None = None,
    n: int | None = None,
    strength: float | None = None,
    t: float = 1.0,
    n_max: int | None = None,
) -> list[VerificationReport]:
    """Run one named verification suite and return its reports.

    Every randomized suite requires an explicit seed; "identities" is fully
    deterministic and exempt.  ``quick`` shrinks sample counts and grids so a
    full pass stays in the minutes range; ``n_max`` overrides the identity
    grids.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if suite == "all":
        reports: list[VerificationReport] = []
        for name in SUITES[:-1]:
            sub_seed = seed if name != "identities" else None
            reports.extend(run_suite(name, seed=sub_seed, quick=quick, threads=threads, t=t, n_max=n_max))
        return reports
    if suite == "identities":
        if quick:
            return identity_reports(
                n_max_det=n_max or 8, n_max_residual=n_max or 12, n_max_potential=n_max or 12,
                quadrature_n=(1,), tilde_n_max=3,
            )
        return identity_reports(
            n_max_det=n_max or 12, n_max_residual=n_max or 50, n_max_potential=n_max or 30,
        )
    if seed is None:
        raise ValueError(f"suite {suite!r} is randomized and requires a seed")
    count = _QUICK_COUNT if quick else DEFAULT_COUNT
    seeds = _spawn_seeds(seed, 8)

    if suite == "lln":
        k_big = 2000.0 if quick else 10_000.0
        nn = n or 2
        return [
            lln_check("A", nn, strength or k_big, t, count=count, seed=seeds[0], threads=threads),
            lln_check("B", nn, strength or k_big, t, nu=1.0, count=count, seed=seeds[1], threads=threads),
            lln_check("B3", nn, strength or k_big, t, k1=1.0, count=count, seed=seeds[2], threads=threads),
        ]
    if suite == "clt-a":
        nn = n or 3
        k = strength or 200.0
        reports = [clt_gaussian_check("A", nn, k, t, count=count, seed=seeds[0], threads=threads)]
        if not quick:
            reports.append(covariance_error_trend("A", nn, t, count=count, seed=seeds[1], threads=threads))
        return reports
    if suite == "clt-b1":
        nn = n or 2
        beta = strength or 200.0
        exact = clt_gaussian_check("B1", nn, beta, t, nu=1.0, count=count, seed=seeds[0], threads=threads)
        reports = [exact]
        if not quick:
            start = np.array([1.0, 0.5]) if nn == 2 else np.linspace(nn, 1, nn) / 2.0
            sde = clt_gaussian_check(
                "B1", nn, beta, t, nu=1.0, count=count, seed=seeds[1],
                method="sde", start=start, steps=2000, threads=threads,
            )
            reports.append(sde)
            regime = FreezingRegime.from_theorem("B1", nn, beta, nu=1.0)
            batch_e = sample_exact(regime.spec, t, count, seeds[2], threads=threads)
            cfg = SdeConfig(spec=regime.spec, x0=StartDistribution.at_point(start), t=t,
                            seed=seeds[3], steps=2000, paths=count, threads=threads)
            batch_s = simulate_endpoints(cfg)
            reports.append(two_sample_agreement(
                regime.center(batch_e.points, t), regime.center(batch_s.points, t),
                name="clt-B1-start-agreement",
                parameters={"n": nn, "beta": beta, "nu": 1.0, "t": t, "count": count},
                seed=seeds[4],
            ))
        return reports
    if suite == "clt-b2":
        return [clt_type_a_limit_check(
            n or 2, strength or 5000.0, 1.0, t, count=count, seed=seeds[0], threads=threads,
        )]
    if suite == "clt-d":
        return [clt_gaussian_check("D", n or 2, strength or 200.0, t, count=count, seed=seeds[0], threads=threads)]
    if suite == "one-sided":
        nn = n or 2
        k2 = strength or 200.0
        return [
            one_sided_check("B0", nn, k2, t, count=count, seed=seeds[0], threads=threads),
            one_sided_check("B3", nn, k2, t, k1=1.0, count=count, seed=seeds[1], threads=threads),
        ]
    if suite == "start-dist":
        nn = n or 2
        beta = strength or 200.0
        paths = count
        # Keep fixed starts close to the origin: by the Ito identity for
        # E|x_t|^2 a start x0 leaves a permanent |x0|^2 excess in the second
        # moment, so large starts shift the centered mean at finite beta.
        point = 0.2 * np.arange(nn, 0, -1, dtype=float)
        mixtures = [
            StartDistribution.at_point(point),
            StartDistribution.uniform(0.9 * point, 1.1 * point),
            StartDistribution.mixture(np.stack([point, 1.5 * point]), [0.5, 0.5]),
        ]
        reports = []
        for mu, s in zip(mixtures, seeds):
            # quick mode cuts paths, never steps: at strong coupling the
            # drift needs h <= ~5e-4 before the step bias clears the battery
            reports.append(start_distribution_check(
                nn, 1.0, beta, t, mu, count=paths, steps=2000,
                seed=s, threads=threads,
            ))
            if quick:
                break
        return reports
    raise AssertionError("unreachable")
