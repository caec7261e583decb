"""Gaussian freezing limits: precision matrices, constants, Bessel-function limits.

The central limit theorems of the freezing regimes share one shape: centered
fluctuations converge to N(0, t * Sigma) where Sigma is the inverse of an
explicit precision matrix S built from the freezing target.  This module
constructs S, its Cholesky factor and determinant, the FreezingRegime of each
limit theorem (spec, scale, target and Sigma), evaluates the closed-form
normalization constants of the start-0 densities in log space, and provides
the scaled limits of the multivariate Bessel function that drive the proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .core import RootKind, RootSystemSpec, _as_count, _as_kind, _positive_roots, _root_values, _unit_spec, in_chamber
from .equilibria import _b_potential_max, _log_j_sum, freezing_target
from .report import VerificationReport
from .special import log_factorial, log_gamma

__all__ = [
    "FreezingRegime",
    "PrecisionMatrix",
    "NormalizationConstant",
    "precision_matrix",
    "covariance",
    "determinant_identity",
    "log_norm_constant",
    "proof_constant_limit",
    "bessel_limit_b1",
    "bessel_a_on_diagonal_ray",
]

_LOG_2PI = math.log(2.0 * math.pi)
_DETERMINANT_TOL = 1e-8
_PROOF_TOL = 5e-3
# the multiplicities along which proof_constant_limit follows each constant
_PROOF_GRID = (10.0, 100.0, 1000.0, 2000.0)


def _exp_or_inf(log_value: float) -> float:
    """exp(log_value), or inf past the float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PrecisionMatrix:
    """Limit precision matrix S together with its Cholesky factor."""

    kind: RootKind
    n: int
    nu: float | None
    matrix: np.ndarray
    chol: np.ndarray  # lower triangular, matrix = chol @ chol.T
    log_det: float

    @property
    def det(self) -> float:
        """det S, or inf past the float range (kind A from n = 171, where det S = n!)."""
        return _exp_or_inf(self.log_det)


@dataclass(frozen=True)
class NormalizationConstant:
    """A closed-form constant kept in log space."""

    family: str
    parameters: dict
    log_value: float

    @property
    def value(self) -> float:
        return _exp_or_inf(self.log_value)


def precision_matrix(kind, n: int, nu: float | None = None) -> PrecisionMatrix:
    """Precision matrix S of the Gaussian freezing limit at the target z.

    S = I + c * sum_alpha k_alpha alpha alpha^T / <alpha, z>^2 over the
    positive roots at unit pair multiplicity (kind B: axis multiplicity nu,
    which must be > 0), with c = 2k/m of the regime: 1 for kind A, 2 for B
    and D.  For kind D the last row and column decouple, since z_n = 0.
    """
    kind = _as_kind(kind)
    target = freezing_target(kind, n, nu)
    if kind is RootKind.B and (nu is None or nu <= 0):
        raise ValueError("kind B precision matrix needs nu > 0")
    n, z = target.n, target.coords
    c = 1.0 if kind is RootKind.A else 2.0
    s = np.eye(n)
    for i, j, sign, k in _positive_roots(_unit_spec(kind, n, nu)):
        w = c * k / _root_values(z, i, j, sign) ** 2
        s[np.diag_indices(n)] += np.bincount(i, w, n) + sign**2 * np.bincount(j, w, n)
        s[i, j] += sign * w
        s[j, i] += sign * w
        del w  # freed before the next group and the factorization, which sets the peak memory
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise RuntimeError("precision matrix factorization failed") from exc
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    for arr in (s, chol):  # built fresh here, so frozen in place rather than copied
        arr.setflags(write=False)
    return PrecisionMatrix(kind, target.n, target.nu, s, chol, log_det)


def covariance(pm: PrecisionMatrix) -> np.ndarray:
    """Sigma = S^{-1} via the stored Cholesky factor."""
    eye = np.eye(pm.n)
    linv = solve_triangular(pm.chol, eye, lower=True)
    sigma = linv.T @ linv
    return 0.5 * (sigma + sigma.T)


@dataclass(frozen=True)
class FreezingRegime:
    """The centering data of one freezing limit: spec, scale m, target, Sigma.

    Samples are centered as  points - sqrt(m * t) * target  and compared to
    N(0, t * sigma).  In regime B3 only the first n-1 centered coordinates are
    Gaussian; the last one is one-sided, on the scale sqrt(t * sigma[-1, -1]).

    ===  ====================  ===================  ====  ==========  ===========
    tag  strength, parameter   spec                 m     target      sigma
    ===  ====================  ===================  ====  ==========  ===========
    A    k                     a(n, k)              2k    A           Sigma_A
    B1   beta, nu > 0          b(n, nu*beta, beta)  beta  B(nu)       Sigma_B(nu)
    B3   k2, fixed k1 >= 0     b(n, k1, k2)         k2    B(nu = 0)   Sigma_D
    D    k                     d(n, k)              k     D           Sigma_D
    ===  ====================  ===================  ====  ==========  ===========

    B3 at k1 = 0 is the zero-axis regime B0.  The B(nu = 0) target has the
    coordinates of the D target: its last coordinate is 0.  ``sigma`` is
    built on first use and kept, so a caller that only rescales to the
    target (``verify.lln_check``) builds neither S nor its inverse.
    """

    spec: RootSystemSpec
    m: float
    target: np.ndarray
    # the (kind, nu) of the precision matrix whose inverse is sigma
    _precision: tuple[RootKind, float | None] = field(repr=False)

    @cached_property
    def sigma(self) -> np.ndarray:
        kind, nu = self._precision
        # at n = 1 (B3 only) there are no pair roots and S_D is [[1]]; kind D itself needs n >= 2
        if self.spec.n == 1 and kind is RootKind.D:
            return np.ones((1, 1))
        return covariance(precision_matrix(kind, self.spec.n, nu))

    @classmethod
    def from_theorem(
        cls, theorem: str, n: int, strength: float, *, nu: float | None = None, k1: float | None = None
    ):
        """The regime of one tag of the table above at strength > 0; only B1 takes nu, only B3 takes k1."""
        if theorem not in ("A", "B1", "B3", "D"):
            raise ValueError(f"unknown theorem tag {theorem!r}")
        if not strength > 0:
            raise ValueError(f"theorem {theorem} needs strength > 0, got {strength}")
        if nu is not None and theorem != "B1":
            raise ValueError(f"theorem {theorem} takes no nu")
        if k1 is not None and theorem != "B3":
            raise ValueError(f"theorem {theorem} takes no k1")
        if theorem == "A":
            spec = RootSystemSpec.a(n, strength)
            target = freezing_target(RootKind.A, n).coords
            return cls(spec, 2.0 * strength, target, (RootKind.A, None))
        if theorem == "B1":
            if nu is None or nu <= 0:
                raise ValueError("theorem B1 needs nu > 0 (nu = 0 is the one-sided regime)")
            spec = RootSystemSpec.b(n, nu * strength, strength)
            target = freezing_target(RootKind.B, n, nu).coords
            precision = (RootKind.B, nu)
        elif theorem == "B3":
            if k1 is None or k1 < 0:
                raise ValueError("theorem B3 needs fixed k1 >= 0")
            spec = RootSystemSpec.b(n, k1, strength)
            target = freezing_target(RootKind.B, n, 0.0).coords
            precision = (RootKind.D, None)
        else:
            spec = RootSystemSpec.d(n, strength)
            target = freezing_target(RootKind.D, n).coords
            precision = (RootKind.D, None)
        return cls(spec, float(strength), target, precision)

    def center(self, points: np.ndarray, t: float) -> np.ndarray:
        return points - math.sqrt(self.m * t) * self.target


def determinant_identity(kind, n: int, nu: float | None = None) -> VerificationReport:
    """det S against its closed form: n! for kind A, n! * 2^n for B, n! * 2^(n-1) for D."""
    kind = _as_kind(kind)
    pm = precision_matrix(kind, n, nu)
    n = pm.n
    log_expected = log_factorial(n)
    if kind is not RootKind.A:
        log_expected += (n if kind is RootKind.B else n - 1) * math.log(2.0)
    rel_err = abs(math.expm1(pm.log_det - log_expected))
    return VerificationReport(
        name=f"determinant-identity-{kind.value}",
        parameters={"n": n, "nu": nu},
        statistics={"log_det": pm.log_det, "log_expected": log_expected, "rel_err": rel_err},
        tolerances={"rel_err": _DETERMINANT_TOL},
        passed=rel_err < _DETERMINANT_TOL,
    )


# ---------------------------------------------------------------------------
# normalization constants (log space)


def _log_c_a(n: int, k: float) -> float:
    s = log_factorial(n) - 0.5 * n * _LOG_2PI
    for j in range(1, n + 1):
        s += log_gamma(1.0 + k) - log_gamma(1.0 + j * k)
    return s


def _log_c_b(n: int, k1: float, k2: float) -> float:
    s = log_factorial(n) - n * (k1 + (n - 1) * k2 - 0.5) * math.log(2.0)
    for j in range(1, n + 1):
        s += log_gamma(1.0 + k2) - log_gamma(1.0 + j * k2) - log_gamma(0.5 + k1 + (j - 1) * k2)
    return s


def _log_c_d(n: int, k: float) -> float:
    # the D chamber is two copies of the B chamber, and D is B at zero axis multiplicity
    return _log_c_b(n, 0.0, k) - math.log(2.0)


def _log_tilde_a(n: int, k: float) -> float:
    if k <= 0:
        raise ValueError("tildeA needs k > 0")
    return _log_c_a(n, k) + 0.5 * k * n * (n - 1) * (math.log(k) - 1.0) + k * _log_j_sum(n)


def _log_tilde_a_limit(n: int) -> float:
    return 0.5 * log_factorial(n) - 0.5 * n * _LOG_2PI


def _log_tilde_b(n: int, nu: float, beta: float, x_norm_sq: float) -> float:
    if beta <= 0 or nu <= 0:
        raise ValueError("tildeB needs nu > 0 and beta > 0")
    return (
        _log_c_b(n, nu * beta, beta)
        + beta * _b_potential_max(n, nu)
        + (nu * beta * n + beta * n * (n - 1)) * math.log(beta)
        - 0.5 * x_norm_sq
    )


def _log_tilde_b_limit(n: int) -> float:
    return _log_tilde_a_limit(n) + 0.5 * n * math.log(2.0)


# the parameters each log_norm_constant family requires (tildeB also takes an optional x)
_FAMILY_PARAMS = {
    "cA": ("n", "k"), "cB": ("n", "k1", "k2"), "cD": ("n", "k"),
    "tildeA": ("n", "k"), "tildeB": ("n", "nu", "beta"),
}


def log_norm_constant(family: str, **params) -> NormalizationConstant:
    """Closed-form constant, assembled in log space.

    Families and parameters:

    * ``cA(n, k)``, ``cB(n, k1, k2)``, ``cD(n, k)``: normalization constants
      of the start-0 densities at t = 1;
    * ``tildeA(n, k)``: the rescaled constant of the A-type CLT proof;
    * ``tildeB(n, nu, beta, x=None)``: its B-type analogue (x a start vector
      of n finite coordinates, defaults to the origin).
    """
    if family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown constant family {family!r}")
    missing = [name for name in _FAMILY_PARAMS[family] if name not in params]
    if missing:
        raise ValueError(f"family {family!r} needs parameters {missing}")
    n = params["n"] = _as_count(params["n"])
    if family == "cA":
        val = _log_c_a(n, float(params["k"]))
    elif family == "cB":
        val = _log_c_b(n, float(params["k1"]), float(params["k2"]))
    elif family == "cD":
        val = _log_c_d(n, float(params["k"]))
    elif family == "tildeA":
        val = _log_tilde_a(n, float(params["k"]))
    else:
        x = params.get("x")
        if x is not None:
            x = np.asarray(x, dtype=float)
            if x.shape != (n,) or not np.all(np.isfinite(x)):
                raise ValueError(f"tildeB needs x to be {n} finite coordinates, got {x.tolist()}")
        x_norm_sq = float(np.dot(x, x)) if x is not None else 0.0
        val = _log_tilde_b(n, float(params["nu"]), float(params["beta"]), x_norm_sq)
        params = {**params, "x": None if x is None else list(x)}
    return NormalizationConstant(family, dict(params), val)


def proof_constant_limit(family: str, n: int, nu: float | None = None) -> VerificationReport:
    """Convergence of the rescaled proof constants to their closed-form limits.

    Evaluates the constant (tildeB at the start x = 0) along the multiplicity
    grid 10, 100, 1000, 2000 and reports relative errors against the limit;
    passes when the error at the largest grid point is below 5e-3 and the
    error sequence is non-increasing (up to rounding).
    """
    n = _as_count(n)
    if family == "tildeA":
        limit = _log_tilde_a_limit(n)
        logs = [_log_tilde_a(n, k) for k in _PROOF_GRID]
    elif family == "tildeB":
        if nu is None or nu <= 0:
            raise ValueError("tildeB needs nu > 0")
        limit = _log_tilde_b_limit(n)
        logs = [_log_tilde_b(n, nu, beta, 0.0) for beta in _PROOF_GRID]
    else:
        raise ValueError(f"unknown proof-constant family {family!r}")
    errs = [abs(math.expm1(lv - limit)) for lv in logs]
    slack = 1e-12  # exact-constant cases (e.g. tildeA with n=1) sit at rounding level
    decreasing = all(errs[i + 1] <= errs[i] + slack for i in range(len(errs) - 1))
    return VerificationReport(
        name=f"proof-constant-limit-{family}",
        parameters={"n": n, "nu": nu, "grid": list(_PROOF_GRID)},
        statistics={"rel_errs": errs, "final_rel_err": errs[-1], "decreasing": decreasing},
        tolerances={"final_rel_err": _PROOF_TOL},
        passed=(errs[-1] < _PROOF_TOL) and decreasing,
    )


# ---------------------------------------------------------------------------
# Bessel-function limits


def bessel_limit_b1(x, y, nu: float) -> float:
    """Limit of the B-type Bessel function along the scaled-multiplicity regime.

    For x, y in the closed B chamber the rescaled Bessel function converges to
    exp(|x|^2 |y|^2 / (4 n (nu + n - 1))); in particular the limit is 1 when
    either argument vanishes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if y.size != n:
        raise ValueError("x and y must have the same length")
    if not (in_chamber(RootKind.B, x) and in_chamber(RootKind.B, y)):
        raise ValueError("x and y must lie in the closed B chamber")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if nu + n - 1 <= 0:
        raise ValueError("need nu + n - 1 > 0")
    return math.exp(float(x @ x) * float(y @ y) / (4.0 * n * (nu + n - 1.0)))


def bessel_a_on_diagonal_ray(x, y) -> float:
    """A-type Bessel function with second argument on the diagonal ray c*(1,..,1).

    The value is exp(c * sum(x)), for every multiplicity.  ``y`` may be the
    scalar c or a constant vector; a non-constant vector is rejected.
    """
    x = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if y_arr.ndim == 0:
        c = float(y_arr)
    else:
        if y_arr.size != x.size:
            raise ValueError("y must be scalar or match the length of x")
        if not np.all(y_arr == y_arr.flat[0]):
            raise ValueError("y must be a constant vector c*(1,...,1)")
        c = float(y_arr.flat[0])
    return math.exp(c * float(np.sum(x)))
