"""Frozen configurations: orthogonal-polynomial zeros and equilibrium identities.

The freezing limit of each process family concentrates on a deterministic
configuration built from classical orthogonal-polynomial zeros:

* kind A: the zeros of the degree-n Hermite polynomial (physicists'
  convention, weight exp(-x^2));
* kind B with axis ratio nu > 0: coordinates r with r_i^2 = 2*z_i where z are
  the zeros of the degree-n Laguerre polynomial with parameter nu - 1;
* kind D (and B with nu = 0): same scaling applied to the zeros of the
  degree-(n-1) Laguerre polynomial with parameter 1, plus a zero coordinate.

Zeros are computed as eigenvalues of the recurrence Jacobi matrix followed by
one Newton polish step through the orthonormal three-term recurrence.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import RootKind, _as_kind
from .report import VerificationReport
from .tridiagonal import tridiagonal_eigenvalues

__all__ = [
    "TargetSource",
    "FreezingTarget",
    "hermite_zeros",
    "laguerre_zeros",
    "laguerre_minus_one_zeros",
    "freezing_target",
    "stationarity_residual",
    "potential_identity_check",
    "a_potential_discrepancy",
]


class TargetSource(str, enum.Enum):
    HERMITE = "hermite"
    LAGUERRE_SCALED = "laguerre-scaled"
    LAGUERRE_MINUS_ONE_SCALED = "laguerre-minus-one-scaled"


# ---------------------------------------------------------------------------
# polynomial zeros


def _hermite_newton_step(x: np.ndarray, n: int) -> np.ndarray:
    """One Newton step for orthonormal Hermite h_n; h_n' = sqrt(2n) h_{n-1}."""
    p_prev = np.zeros_like(x)
    p = np.full_like(x, math.pi ** -0.25)
    for j in range(n):
        p_next = x * math.sqrt(2.0 / (j + 1)) * p - math.sqrt(j / (j + 1)) * p_prev
        p_prev, p = p, p_next
    deriv = math.sqrt(2.0 * n) * p_prev
    return x - p / deriv


@lru_cache(maxsize=None)
def _hermite_zeros_cached(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        z = np.zeros(1)
    else:
        off = np.sqrt(np.arange(1, n) / 2.0)
        z = tridiagonal_eigenvalues(np.zeros((1, n)), off[None, :])[0]
        # the recurrence overflows from n = 731; the finiteness check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            z = _hermite_newton_step(z, n)
        if not np.all(np.isfinite(z)):
            raise RuntimeError(f"Hermite zeros not finite for n={n}")
        z = np.sort(z)[::-1]
        # the zero set is symmetric about the origin; enforce it exactly
        z = 0.5 * (z - z[::-1])
    z.setflags(write=False)
    return z


def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of the degree-n Hermite polynomial, descending, antisymmetric."""
    return _hermite_zeros_cached(int(n)).copy()


def _laguerre_newton_step(x: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """One Newton step using the Jacobi-matrix-normalized Laguerre recurrence.

    With q_0 = 1 and sqrt(b_{j+1}) q_{j+1} = (x - a_j) q_j - sqrt(b_j) q_{j-1}
    (a_j = 2j + alpha + 1, b_j = j(j + alpha)), the derivative identity reads
    x q_n' = n q_n + sqrt(n(n + alpha)) q_{n-1}.
    """
    q_prev = np.zeros_like(x)
    q = np.ones_like(x)
    for j in range(n):
        a_j = 2.0 * j + alpha + 1.0
        b_j = math.sqrt(j * (j + alpha)) if j > 0 else 0.0
        b_next = math.sqrt((j + 1) * (j + 1 + alpha))
        q_next = ((x - a_j) * q - b_j * q_prev) / b_next
        q_prev, q = q, q_next
    deriv = (n * q + math.sqrt(n * (n + alpha)) * q_prev) / x
    return x - q / deriv


@lru_cache(maxsize=None)
def _laguerre_zeros_cached(n: int, alpha: float) -> np.ndarray:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if alpha <= -1.0:
        raise ValueError("Laguerre parameter must be > -1")
    diag = 2.0 * np.arange(n) + alpha + 1.0
    j = np.arange(1, n)
    off = np.sqrt(j * (j + alpha))
    z = tridiagonal_eigenvalues(diag[None, :], off[None, :])[0]
    # the Newton recurrence overflows to NaN from n = 363 at alpha = 0; the
    # checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        z = _laguerre_newton_step(z, n, alpha)
    z = np.sort(z)[::-1]
    if not np.all(np.isfinite(z)) or z[-1] <= 0.0 or np.any(z[:-1] <= z[1:]):
        raise RuntimeError(f"Laguerre zeros degenerate for n={n}, alpha={alpha}")
    z.setflags(write=False)
    return z


def laguerre_zeros(n: int, alpha: float) -> np.ndarray:
    """Zeros of the degree-n Laguerre polynomial L_n^(alpha), descending, all > 0."""
    return _laguerre_zeros_cached(int(n), float(alpha)).copy()


def laguerre_minus_one_zeros(n: int) -> np.ndarray:
    """Zeros of L_n^(-1): the zeros of L_{n-1}^(1) together with 0.

    L_n^(-1)(x) = -(x/n) L_{n-1}^(1)(x), so the zero at the origin is exact.
    """
    n = int(n)
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return np.zeros(1)
    z = np.empty(n)
    z[: n - 1] = laguerre_zeros(n - 1, 1.0)
    z[n - 1] = 0.0
    return z


# ---------------------------------------------------------------------------
# freezing targets


@dataclass(frozen=True)
class FreezingTarget:
    """Deterministic limit configuration of a freezing regime."""

    kind: RootKind
    n: int
    nu: float | None
    coords: np.ndarray
    source: TargetSource

    def __post_init__(self):
        c = np.array(self.coords, dtype=float, copy=True)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)


_RESIDUAL_TOL = 1e-10


@lru_cache(maxsize=None)
def _freezing_target_cached(kind: RootKind, n: int, nu: float | None) -> FreezingTarget:
    if kind is RootKind.A:
        coords = hermite_zeros(n)
        target = FreezingTarget(kind, n, None, coords, TargetSource.HERMITE)
    elif kind is RootKind.B:
        if nu is None or nu < 0:
            raise ValueError("kind B target needs nu >= 0")
        if nu == 0:
            coords = np.sqrt(2.0 * laguerre_minus_one_zeros(n))
            target = FreezingTarget(kind, n, 0.0, coords, TargetSource.LAGUERRE_MINUS_ONE_SCALED)
        else:
            coords = np.sqrt(2.0 * laguerre_zeros(n, nu - 1.0))
            target = FreezingTarget(kind, n, float(nu), coords, TargetSource.LAGUERRE_SCALED)
    else:
        coords = np.sqrt(2.0 * laguerre_minus_one_zeros(n))
        target = FreezingTarget(kind, n, None, coords, TargetSource.LAGUERRE_MINUS_ONE_SCALED)
    res = stationarity_residual(target)
    if not res < _RESIDUAL_TOL:  # a NaN residual fails too
        raise RuntimeError(
            f"stationarity residual {res:.3e} exceeds {_RESIDUAL_TOL} for {kind.value}, n={n}, nu={nu}"
        )
    return target


def freezing_target(kind, n: int, nu: float | None = None) -> FreezingTarget:
    """Limit configuration for the given root system kind (nu for kind B only)."""
    kind = _as_kind(kind)
    if kind is not RootKind.B and nu is not None:
        raise ValueError("nu applies to kind B only")
    if kind is RootKind.B and nu is None:
        raise ValueError("kind B target needs nu")
    if kind is RootKind.D and n < 2:
        raise ValueError("kind D needs n >= 2")
    return _freezing_target_cached(kind, int(n), float(nu) if nu is not None else None)


def stationarity_residual(target: FreezingTarget) -> float:
    """Max absolute residual of the equilibrium equations at the target."""
    n = target.n
    if n == 1:
        if target.kind is RootKind.A:
            return abs(target.coords[0])
        if target.kind is RootKind.B and (target.nu or 0.0) > 0:
            r = target.coords[0]
            return abs(0.5 * r - target.nu / r)
        return abs(target.coords[0])

    if target.kind is RootKind.A:
        y = math.sqrt(2.0) * target.coords
        diff = y[:, None] - y[None, :]
        np.fill_diagonal(diff, np.inf)
        res = 0.5 * y - np.sum(1.0 / diff, axis=1)
        return float(np.max(np.abs(res)))

    r = target.coords
    if target.kind is RootKind.B and (target.nu or 0.0) > 0:
        sq = r[:, None] ** 2 - r[None, :] ** 2
        np.fill_diagonal(sq, np.inf)
        res = 0.5 * r - np.sum(2.0 * r[:, None] / sq, axis=1) - target.nu / r
        return float(np.max(np.abs(res)))

    # kind D (and B with nu = 0): last coordinate vanishes, the others solve
    # 4 * sum_{j != i} 1/(r_i^2 - r_j^2) = 1
    sq = r[:, None] ** 2 - r[None, :] ** 2
    np.fill_diagonal(sq, np.inf)
    res = 4.0 * np.sum(1.0 / sq[:-1], axis=1) - 1.0
    return float(max(np.max(np.abs(res)), abs(r[-1])))


# ---------------------------------------------------------------------------
# closed-form potential identities


def _log_j_sum(n: int) -> float:
    return float(sum(j * math.log(j) for j in range(2, n + 1)))


def _b_potential_max(n: int, nu: float) -> float:
    """Closed-form value of the B-type potential at its maximizer, the target.

    n(n+nu-1)(log 2 - 1) + sum_j j log j + sum_j (nu+j-1) log(nu+j-1).
    """
    return (
        n * (n + nu - 1.0) * (math.log(2.0) - 1.0)
        + _log_j_sum(n)
        + float(sum((nu + j - 1.0) * math.log(nu + j - 1.0) for j in range(1, n + 1) if nu + j - 1.0 > 0))
    )


def a_potential_discrepancy(n: int, t: float) -> float:
    """LHS - RHS of the A-type potential identity at time parameter t.

    The two sides carry different t-dependence and agree at t = 1/2 only;
    callers that want the verified identity should evaluate there.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    z = hermite_zeros(n)
    iu, ju = np.triu_indices(n, k=1)
    lhs = -float(z @ z) / (2.0 * t) + 2.0 * float(np.sum(np.log(z[iu] - z[ju])))
    rhs = -0.5 * n * (n - 1) * (1.0 - math.log(t)) + _log_j_sum(n)
    return lhs - rhs


def potential_identity_check(kind: str, n: int, nu: float | None = None) -> VerificationReport:
    """Check one closed-form equilibrium identity.

    ``kind`` is one of:

    * ``"A_at_half"``: potential value identity at t = 1/2;
    * ``"A_sumsq"``: sum of squared Hermite zeros equals n(n-1)/2;
    * ``"B_full"``: B-type potential value at the target;
    * ``"B_norm"``: squared norm of the B target equals 2n(n + nu - 1).
    """
    tol = 1e-9
    params: dict = {"n": n}
    if kind == "A_at_half":
        diff = abs(a_potential_discrepancy(n, 0.5))
        stats = {"abs_diff": diff}
    elif kind == "A_sumsq":
        z = hermite_zeros(n)
        diff = abs(float(z @ z) - n * (n - 1) / 2.0)
        stats = {"abs_diff": diff}
    elif kind == "B_full":
        if nu is None or nu <= 0:
            raise ValueError("B_full needs nu > 0")
        params["nu"] = nu
        r = freezing_target(RootKind.B, n, nu).coords
        iu, ju = np.triu_indices(n, k=1)
        lhs = (
            -0.5 * float(r @ r)
            + nu * float(np.sum(np.log(r**2)))
            + 2.0 * float(np.sum(np.log(r[iu] ** 2 - r[ju] ** 2)))
        )
        rhs = _b_potential_max(n, nu)
        diff = abs(lhs - rhs)
        stats = {"lhs": lhs, "rhs": rhs, "abs_diff": diff}
    elif kind == "B_norm":
        if nu is None or nu < 0:
            raise ValueError("B_norm needs nu >= 0")
        params["nu"] = nu
        r = freezing_target(RootKind.B, n, nu).coords
        diff = abs(float(r @ r) - 2.0 * n * (n + nu - 1.0))
        stats = {"abs_diff": diff}
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    return VerificationReport(
        name=f"potential-identity-{kind}",
        parameters=params,
        statistics=stats,
        tolerances={"abs_diff": tol},
        passed=diff < tol,
    )
