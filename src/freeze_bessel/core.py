"""Root systems A/B/D: Weyl chambers, weight functions, freezing potentials.

Conventions
-----------
Points live in the closed chamber of the root system, coordinates in
descending order:

* kind A: ``x1 >= x2 >= ... >= xn``
* kind B: ``x1 >= ... >= xn >= 0``
* kind D: ``x1 >= ... >= x_{n-1} >= |xn|`` (last coordinate may be negative)

Coordinates enter every function as arrays; raw vectors go through
:func:`project_batch`, and every single-point argument of the package goes
through one rule, ``_as_point``.  ``log_weight_batch`` and
``freezing_potential`` are total functions: they return ``-inf`` off the
chamber and on walls where the weight vanishes, which is exactly what the
Metropolis sampler needs for its accept/reject step.

Kind D is the B system with zero axis multiplicity (:attr:`RootSystemSpec.pair_axis`).
The weight, its degree, the precision matrix S and the stationarity residual
are each one sum over the positive roots of ``_positive_roots``, for every kind.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RootKind",
    "RootSystemSpec",
    "homogeneity_degree",
    "in_chamber",
    "project_batch",
    "log_weight_batch",
    "freezing_potential",
]


class RootKind(str, enum.Enum):
    A = "A"
    B = "B"
    D = "D"


def _as_kind(kind) -> RootKind:
    if isinstance(kind, RootKind):
        return kind
    return RootKind(str(kind).upper())


def _as_count(n, name: str = "n") -> int:
    """A particle count, degree, sample or thread count as an int >= 1.

    0, 2.7, inf, NaN and ints past the float range are refused.
    """
    try:
        ok = math.isfinite(n) and n == int(n) and n >= 1
    except OverflowError:  # math.isfinite of an int past the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def _as_seed(seed) -> int:
    """A random seed as an int >= 0, of any size; 1.5, -1, inf and NaN are refused."""
    try:
        ok = seed == int(seed) and seed >= 0
    except (ValueError, OverflowError):  # int() of NaN and of inf
        ok = False
    if not ok:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def _as_time(t) -> float:
    """A time as a float; zero, negative and non-finite times are refused."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got {t}")
    return float(t)


def _as_point(x, n: int | None, kind, name: str) -> np.ndarray:
    """One point as a float array of shape (n,), or of any length >= 1 when n is None.

    The coordinates must be finite and, when ``kind`` is not None, lie in
    that kind's closed chamber; anything else is refused naming ``name``.
    """
    width = "one or more" if n is None else str(n)
    try:
        p = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be {width} finite coordinates, got {x!r}") from None
    if p.ndim != 1 or p.size == 0 or (n is not None and p.size != n) or not np.all(np.isfinite(p)):
        raise ValueError(f"{name} must be {width} finite coordinates, got {p.tolist()}")
    if kind is not None and not in_chamber(kind, p):
        raise ValueError(f"{name} {p.tolist()} lies outside the closed {_as_kind(kind).value} chamber")
    return p


@dataclass(frozen=True)
class RootSystemSpec:
    """Root system kind, particle count, and multiplicity parameters.

    ``multiplicity`` is a single coupling ``k >= 0`` for kinds A and D, and a
    pair ``(k1, k2)`` for kind B (``k1`` on the axis roots, ``k2`` on the
    pairwise roots).  The constructor reads ``to_dict()`` output back:
    ``RootSystemSpec(**spec.to_dict()) == spec``.
    """

    kind: RootKind
    n: int
    multiplicity: float | tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "kind", _as_kind(self.kind))
        n = _as_count(self.n)
        object.__setattr__(self, "n", n)
        if self.kind is RootKind.D and n < 2:
            raise ValueError("kind D needs n >= 2")
        if self.kind is RootKind.B:
            try:
                k1, k2 = self.multiplicity  # type: ignore[misc]
            except TypeError:
                raise ValueError("kind B takes a multiplicity pair (k1, k2)") from None
            mult: float | tuple[float, float] = (float(k1), float(k2))
        else:
            if isinstance(self.multiplicity, tuple):
                raise ValueError(f"kind {self.kind.value} takes a scalar multiplicity")
            mult = float(self.multiplicity)
        values = mult if isinstance(mult, tuple) else (mult,)
        if any(not math.isfinite(m) or m < 0 for m in values):
            raise ValueError("multiplicities must be finite and >= 0")
        object.__setattr__(self, "multiplicity", mult)

    @classmethod
    def a(cls, n: int, k: float) -> "RootSystemSpec":
        return cls(RootKind.A, n, k)

    @classmethod
    def b(cls, n: int, k1: float, k2: float) -> "RootSystemSpec":
        return cls(RootKind.B, n, (k1, k2))

    @classmethod
    def d(cls, n: int, k: float) -> "RootSystemSpec":
        return cls(RootKind.D, n, k)

    @property
    def k(self) -> float:
        """Scalar coupling (kinds A and D only)."""
        if self.kind is RootKind.B:
            raise AttributeError("kind B carries a pair; use .k1 and .k2")
        return self.multiplicity  # type: ignore[return-value]

    @property
    def k1(self) -> float:
        if self.kind is not RootKind.B:
            raise AttributeError("k1 is defined for kind B only")
        return self.multiplicity[0]  # type: ignore[index]

    @property
    def k2(self) -> float:
        if self.kind is not RootKind.B:
            raise AttributeError("k2 is defined for kind B only")
        return self.multiplicity[1]  # type: ignore[index]

    @property
    def pair_axis(self) -> tuple[float, float]:
        """(pair, axis) multiplicities: (k, 0.0) for kinds A and D, (k2, k1) for B."""
        if self.kind is RootKind.B:
            k1, k2 = self.multiplicity  # type: ignore[misc]
            return k2, k1
        return self.multiplicity, 0.0  # type: ignore[return-value]

    def to_dict(self) -> dict:
        mult = list(self.multiplicity) if self.kind is RootKind.B else self.multiplicity
        return {"kind": self.kind.value, "n": self.n, "multiplicity": mult}


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j), i < j, of the n(n-1)/2 particle pairs (read-only)."""
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


@lru_cache(maxsize=None)
def _unit_spec(kind: RootKind, n: int, nu: float | None) -> RootSystemSpec:
    """The spec at unit pair multiplicity; kind B takes axis multiplicity nu."""
    return RootSystemSpec(kind, n, (nu, 1.0) if kind is RootKind.B else 1.0)


def _positive_roots(spec: RootSystemSpec) -> list[tuple[np.ndarray, np.ndarray, float, float]]:
    """The positive roots of nonzero multiplicity k as groups (i, j, s, k): <alpha, x> = x[i] + s * x[j].

    e_i - e_j (i < j, s = -1) and, for kinds B and D, e_i + e_j (s = 1) carry the
    pair multiplicity; the kind-B axis roots e_i (j = i, s = 0) carry the axis one.
    """
    kpair, kaxis = spec.pair_axis
    groups = []
    if kpair > 0 and spec.n > 1:
        iu, ju = _pair_indices(spec.n)
        groups.append((iu, ju, -1.0, kpair))
        if spec.kind is not RootKind.A:
            groups.append((iu, ju, 1.0, kpair))
    if kaxis > 0:
        axis = np.arange(spec.n)
        groups.append((axis, axis, 0.0, kaxis))
    return groups


def _root_values(x: np.ndarray, i: np.ndarray, j: np.ndarray, s: float) -> np.ndarray:
    """<alpha, x> over the last axis of x for one group, summed in place (s is 1, -1 or 0)."""
    out = x[..., i]
    if s != 0:
        (np.add if s > 0 else np.subtract)(out, x[..., j], out=out)
    return out


def homogeneity_degree(spec: RootSystemSpec) -> float:
    """Degree gamma = sum of k_alpha of the weight function: w(c*y) = c^(2*gamma) * w(y)."""
    return float(sum(k * i.size for i, _, _, k in _positive_roots(spec)))


def _chamber_order(kind: RootKind, x: np.ndarray, holds) -> np.ndarray:
    """``holds`` (``np.greater_equal`` or ``np.greater``) across the simple roots.

    x_i vs x_{i+1}, then kind B adds x_n vs 0 and kind D adds x_{n-1} vs
    -x_n; D's x_{n-1} >= |x_n| is the pair x_{n-1} >= x_n, x_{n-1} >= -x_n.
    Each side is a view or one column, so no (rows, n + 1) array is built.
    """
    ok = np.all(holds(x[..., :-1], x[..., 1:]), axis=-1)
    if kind is RootKind.B:
        ok &= holds(x[..., -1], 0.0)
    elif kind is RootKind.D:
        ok &= holds(x[..., -2], -x[..., -1])
    return ok


def in_chamber(kind, pts) -> np.ndarray | bool:
    """Whether point(s) lie in the closed chamber.  Vectorized over leading axes."""
    ordered = _chamber_order(_as_kind(kind), np.asarray(pts, dtype=float), np.greater_equal)
    if ordered.ndim == 0:
        return bool(ordered)
    return ordered


def _project_particle_major(kind: RootKind, x: np.ndarray) -> int:
    """Project the columns of a particle-major (n, rows) array to the chamber, in place.

    Only columns outside the closed chamber are re-sorted, each in its own
    (rows, n) copy, and the function returns how many there were; it returns
    0 at once when every column is inside.  For kind B a last coordinate of
    -0.0 also counts as outside, so the axis drift k1/x_n never sees a
    negative zero.
    """
    redo = ~_chamber_order(kind, x.T, np.greater_equal)
    if kind is RootKind.B:
        redo |= np.signbit(x[-1])
    if not redo.any():
        return 0
    y = np.ascontiguousarray(x[:, redo].T)
    if kind is RootKind.A:
        out = -np.sort(-y, axis=-1)
    else:
        out = -np.sort(-np.abs(y), axis=-1)
    if kind is RootKind.D:
        # sign changes come in pairs, so the parity of the number of
        # negative coordinates survives projection and lands on the last slot
        odd = (y < 0).sum(axis=-1) % 2 == 1
        out[:, -1] = np.where(odd, -out[:, -1], out[:, -1])
    x[:, redo] = out.T
    return y.shape[0]


def project_batch(kind, pts: np.ndarray) -> np.ndarray:
    """Map raw vectors to their chamber representatives (Weyl group orbit).

    Returns a copy of ``pts`` (one vector or rows of vectors) whose rows
    outside the closed chamber are re-sorted; the others come back unchanged.
    The work runs on a particle-major view of the copy, through the same
    kernel as the SDE step loop.
    """
    out = np.array(pts, dtype=float, order="C")
    _project_particle_major(_as_kind(kind), out.reshape(-1, out.shape[-1]).T)
    return out


def log_weight_batch(spec: RootSystemSpec, pts: np.ndarray) -> np.ndarray:
    """log w(x) = sum over the positive roots of 2 k_alpha log<alpha, x>, vectorized over leading axes.

    Returns ``-inf`` off the chamber, and on walls where the weight vanishes
    (zero multiplicities contribute nothing even on their wall).
    """
    x = np.asarray(pts, dtype=float)
    if x.shape[-1] != spec.n:
        raise ValueError(f"expected {spec.n} coordinates, got {x.shape[-1]}")
    ok = np.asarray(in_chamber(spec.kind, x))
    out = np.zeros(x.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, j, s, k in _positive_roots(spec):
            out = out + 2.0 * k * np.sum(np.log(_root_values(x, i, j, s)), axis=-1)
    out = np.where(ok & ~np.isnan(out), out, -np.inf)
    if out.ndim == 0:
        return out[()]
    return out


def freezing_potential(spec: RootSystemSpec, y) -> float:
    """Log-scale potential of the frozen particle configuration.

    W(y) = log w(y) - |y|^2/2 with the weight at unit pair multiplicity and,
    for kind B, axis multiplicity nu = k1/k2 of the spec:
    W_A(y) = 2 sum_{i<j} log(y_i - y_j) - |y|^2/2,
    W_B(y) = 2 sum_{i<j} log(y_i^2 - y_j^2) + 2 nu sum_i log y_i - |y|^2/2,
    and W_D is W_B without the axis term.  For kinds B and D the chamber
    maximizer is the freezing target; for kind A this normalization puts the
    maximizer at sqrt(2) times the target vector.
    """
    x = np.asarray(y, dtype=float)
    kpair, kaxis = spec.pair_axis
    if spec.kind is RootKind.B and kpair == 0:
        raise ValueError("nu = k1/k2 undefined: k2 == 0")
    unit = _unit_spec(spec.kind, spec.n, kaxis / kpair if spec.kind is RootKind.B else None)
    w = float(log_weight_batch(unit, x)) - 0.5 * float(x @ x)
    return w if not math.isnan(w) else -math.inf
