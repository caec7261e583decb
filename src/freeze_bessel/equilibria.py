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
one Newton polish step on its characteristic polynomial, whose three-term
recurrence runs on ratios so that no degree overflows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import RootKind, _as_count, _as_kind, _positive_roots, _root_values, _unit_spec, freezing_potential
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
]


class TargetSource(str, enum.Enum):
    HERMITE = "hermite"
    LAGUERRE_SCALED = "laguerre-scaled"
    LAGUERRE_MINUS_ONE_SCALED = "laguerre-minus-one-scaled"


# ---------------------------------------------------------------------------
# polynomial zeros


# A pivot rho_j smaller than this is replaced by it, as LAPACK's bisection
# does; at sqrt(tiny) neither 1/rho_j nor the terms off_j^2/rho_j overflow.
_PIVMIN = math.sqrt(np.finfo(float).tiny)


def _newton_step(x: np.ndarray, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """One Newton step x - P_n/P_n' on P_n(x) = det(x - J), J the symmetric
    tridiagonal with ``diag`` on the diagonal and ``off`` beside it.

    P_{j+1} = (x - diag_j) P_j - off_{j-1}^2 P_{j-1} is run on the ratios
    rho_j = P_j/P_{j-1} and sigma_j = P_j'/P_j, which do not overflow, and
    the step is x - 1/sigma_n.
    """
    off2 = np.concatenate(([0.0], off**2))
    rho, sigma_prev, sigma = np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    for a_j, b2_j in zip(diag, off2):
        u = x - a_j
        rho_next = u - b2_j / rho
        rho_next[np.abs(rho_next) < _PIVMIN] = -_PIVMIN
        sigma_prev, sigma = sigma, (1.0 + u * sigma - b2_j * sigma_prev / rho) / rho_next
        rho = rho_next
    return x - 1.0 / sigma


@lru_cache(maxsize=None)
def _zeros_cached(n: int, alpha: float | None) -> np.ndarray:
    """Descending zeros of the degree-n Hermite (``alpha`` None) or Laguerre
    L_n^(alpha) polynomial: the eigenvalues of its Jacobi matrix, then one
    Newton step."""
    j = np.arange(1, n)
    if alpha is None:
        family = "Hermite"
        diag, off = np.zeros(n), np.sqrt(j / 2.0)
    else:
        if not (math.isfinite(alpha) and alpha > -1.0):
            raise ValueError("Laguerre parameter must be finite and > -1")
        family = f"Laguerre(alpha={alpha})"
        diag, off = 2.0 * np.arange(n) + alpha + 1.0, np.sqrt(j * (j + alpha))
    z = tridiagonal_eigenvalues(diag[None, :], off[None, :])[0]
    z = np.sort(_newton_step(z, diag, off))[::-1]
    if not np.all(np.isfinite(z)) or np.any(z[:-1] <= z[1:]) or (alpha is not None and z[-1] <= 0.0):
        raise RuntimeError(f"{family} zeros degenerate for n={n}")
    if alpha is None:
        # the Hermite zero set is symmetric about the origin; enforce it exactly
        z = 0.5 * (z - z[::-1])
    z.setflags(write=False)
    return z


def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of the degree-n Hermite polynomial, descending, antisymmetric."""
    return _zeros_cached(_as_count(n), None).copy()


def laguerre_zeros(n: int, alpha: float) -> np.ndarray:
    """Zeros of the degree-n Laguerre polynomial L_n^(alpha), descending, all > 0."""
    return _zeros_cached(_as_count(n), float(alpha)).copy()


def laguerre_minus_one_zeros(n: int) -> np.ndarray:
    """Zeros of L_n^(-1): the zeros of L_{n-1}^(1) together with 0.

    L_n^(-1)(x) = -(x/n) L_{n-1}^(1)(x), so the zero at the origin is exact.
    """
    n = _as_count(n)
    return np.append(laguerre_zeros(n - 1, 1.0), 0.0) if n > 1 else np.zeros(1)


# ---------------------------------------------------------------------------
# freezing targets


@dataclass(frozen=True, eq=False)  # compared by identity: the generated == fails on ndarray fields
class FreezingTarget:
    """Deterministic limit configuration of a freezing regime.

    ``residual`` is the stationarity residual that the 1e-10 gate of
    ``freezing_target`` measured (NaN on a target built by hand).
    """

    kind: RootKind
    n: int
    nu: float | None
    coords: np.ndarray
    source: TargetSource
    residual: float = math.nan

    def __post_init__(self):
        c = np.array(self.coords, dtype=float, copy=True)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)


_RESIDUAL_TOL = 1e-10


@lru_cache(maxsize=None)
def _gated_target_cached(kind: RootKind, n: int, nu: float | None) -> FreezingTarget:
    if kind is RootKind.A:
        target = FreezingTarget(kind, n, None, hermite_zeros(n), TargetSource.HERMITE)
    elif kind is RootKind.B and nu != 0:
        coords = np.sqrt(2.0 * laguerre_zeros(n, nu - 1.0))
        target = FreezingTarget(kind, n, nu, coords, TargetSource.LAGUERRE_SCALED)
    else:  # kind D, and B with nu = 0
        coords = np.sqrt(2.0 * laguerre_minus_one_zeros(n))
        target = FreezingTarget(kind, n, None if nu is None else 0.0, coords, TargetSource.LAGUERRE_MINUS_ONE_SCALED)
    res = stationarity_residual(target)
    if not res < _RESIDUAL_TOL:  # a NaN residual fails too
        raise RuntimeError(
            f"stationarity residual {res:.3e} exceeds {_RESIDUAL_TOL} for {kind.value}, n={n}, nu={nu}"
        )
    return replace(target, residual=res)


def freezing_target(kind, n: int, nu: float | None = None) -> FreezingTarget:
    """Limit configuration for the given root system kind (nu for kind B only), cached and gated."""
    kind, n = _as_kind(kind), _as_count(n)
    if kind is not RootKind.B and nu is not None:
        raise ValueError("nu applies to kind B only")
    if kind is RootKind.B and not (nu is not None and math.isfinite(nu) and nu >= 0):
        raise ValueError(f"kind B target needs a finite nu >= 0, got {nu}")
    if kind is RootKind.D and n < 2:
        raise ValueError("kind D needs n >= 2")
    return _gated_target_cached(kind, n, float(nu) if nu is not None else None)


def stationarity_residual(target: FreezingTarget) -> float:
    """Max absolute residual of the equilibrium equations at the target.

    That is max |y/2 - sum_alpha k_alpha alpha / <alpha, y>|, minus half the
    gradient of the freezing potential, at its maximizer y (sqrt(2) z for
    kind A, z for kinds B and D), the roots at unit pair multiplicity and, for
    kind B, axis multiplicity nu.  At the zero last coordinate of the D (and
    B, nu = 0) target the terms of e_i - e_n and e_i + e_n cancel exactly.
    """
    y = math.sqrt(2.0) * target.coords if target.kind is RootKind.A else target.coords
    res = 0.5 * y
    for i, j, s, k in _positive_roots(_unit_spec(target.kind, target.n, target.nu)):
        w = k / _root_values(y, i, j, s)
        res -= np.bincount(i, w, target.n) + s * np.bincount(j, w, target.n)
    return float(np.max(np.abs(res)))


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


def potential_identity_check(kind: str, n: int, nu: float | None = None) -> float:
    """Absolute deviation of one closed-form equilibrium identity.

    ``kind`` is one of:

    * ``"A_at_half"``: W_A(z/sqrt(t)) + n(n-1)/2 equals sum_j j log j at
      t = 1/2 for the Hermite zeros z (``core.freezing_potential``'s W_A
      peaks at sqrt(2) z, so no other t holds);
    * ``"A_sumsq"``: sum of squared Hermite zeros equals n(n-1)/2;
    * ``"B_full"``: B-type potential value at the target (nu > 0);
    * ``"B_norm"``: squared norm of the B target equals 2n(n + nu - 1) (nu >= 0).

    The two A identities take no nu.
    """
    if kind in ("A_at_half", "A_sumsq"):
        if nu is not None:
            raise ValueError(f"{kind} takes no nu")
        z = hermite_zeros(n)
        if kind == "A_sumsq":
            return abs(float(z @ z) - n * (n - 1) / 2.0)
        w = freezing_potential(_unit_spec(RootKind.A, n, None), z / math.sqrt(0.5))
        return abs(w + 0.5 * n * (n - 1) - _log_j_sum(n))
    if kind == "B_full":
        if nu is None or nu <= 0:
            raise ValueError("B_full needs nu > 0")
        return abs(freezing_potential(_unit_spec(RootKind.B, n, nu), freezing_target(RootKind.B, n, nu).coords)
                   - _b_potential_max(n, nu))
    if kind == "B_norm":
        if nu is None or nu < 0:
            raise ValueError("B_norm needs nu >= 0")
        r = freezing_target(RootKind.B, n, nu).coords
        return abs(float(r @ r) - 2.0 * n * (n + nu - 1.0))
    raise ValueError(f"unknown identity kind {kind!r}")
