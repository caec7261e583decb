"""Freezing limits of interacting particle systems on Weyl chambers.

The package computes the deterministic freezing targets (polynomial zeros),
the Gaussian fluctuation matrices around them, exact fixed-time samplers via
tridiagonal random matrix models, a Metropolis sampler, Heun-scheme SDE
paths, and a statistical verification harness for the limit theorems.
"""

from ._version import __version__
from .core import (
    RootKind,
    RootSystemSpec,
    freezing_potential,
    homogeneity_degree,
    in_chamber,
    log_weight_batch,
    project_batch,
)
from .equilibria import (
    FreezingTarget,
    TargetSource,
    freezing_target,
    hermite_zeros,
    laguerre_minus_one_zeros,
    laguerre_zeros,
    potential_identity_check,
    stationarity_residual,
)
from .gaussian import (
    PrecisionMatrix,
    bessel_a_on_diagonal_ray,
    bessel_limit_b1,
    covariance,
    determinant_identity,
    log_norm_constant,
    precision_matrix,
    proof_constant_limit,
)
from .manifest import RunManifest
from .quadrature import adaptive_gauss, chamber_moment, chamber_weight_integral
from .report import VerificationReport
from .sampling import (
    BatchDiagnostics,
    SampleBatch,
    SampleMethod,
    SamplerAbort,
    sample_exact,
    sample_metropolis,
    sample_tridiag_a,
    sample_tridiag_b,
)
from .sde import (
    BUDGET_ENV_VAR,
    BudgetExceeded,
    SdeConfig,
    StartDistribution,
    drift_batch,
    simulate_endpoints,
)
from .verify import (
    SUITES,
    FreezingRegime,
    calibration_check,
    clt_gaussian_check,
    clt_type_a_limit_check,
    covariance_error_trend,
    gaussian_battery,
    lln_check,
    one_sided_check,
    run_suite,
    start_distribution_check,
    translation_invariance_check,
    two_sample_agreement,
)

__all__ = [
    "__version__",
    "RootKind",
    "RootSystemSpec",
    "freezing_potential",
    "homogeneity_degree",
    "in_chamber",
    "log_weight_batch",
    "project_batch",
    "FreezingTarget",
    "TargetSource",
    "freezing_target",
    "hermite_zeros",
    "laguerre_minus_one_zeros",
    "laguerre_zeros",
    "potential_identity_check",
    "stationarity_residual",
    "PrecisionMatrix",
    "bessel_a_on_diagonal_ray",
    "bessel_limit_b1",
    "covariance",
    "determinant_identity",
    "log_norm_constant",
    "precision_matrix",
    "proof_constant_limit",
    "RunManifest",
    "adaptive_gauss",
    "chamber_moment",
    "chamber_weight_integral",
    "VerificationReport",
    "BatchDiagnostics",
    "SampleBatch",
    "SampleMethod",
    "SamplerAbort",
    "sample_exact",
    "sample_metropolis",
    "sample_tridiag_a",
    "sample_tridiag_b",
    "BUDGET_ENV_VAR",
    "BudgetExceeded",
    "SdeConfig",
    "StartDistribution",
    "drift_batch",
    "simulate_endpoints",
    "translation_invariance_check",
    "SUITES",
    "FreezingRegime",
    "calibration_check",
    "clt_gaussian_check",
    "clt_type_a_limit_check",
    "covariance_error_trend",
    "gaussian_battery",
    "lln_check",
    "one_sided_check",
    "run_suite",
    "start_distribution_check",
    "two_sample_agreement",
]
