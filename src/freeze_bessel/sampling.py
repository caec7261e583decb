"""Exact fixed-time sampling of the start-0 laws.

Two routes:

* tridiagonal matrix models (kinds A and B; kind D is the B model with zero
  axis multiplicity plus a fair sign on the last coordinate), exact in law;
* an independence Metropolis chain whose proposal is the limit Gaussian of
  the freezing regime.

All samplers draw from ``numpy`` PCG64 generators (``np.random.default_rng``)
seeded through ``SeedSequence``: a batch is regenerable bit-for-bit from
(spec, t, method, seed, count), sub-batches get spawned child seeds and are
merged in order, so results do not depend on how many worker threads ran them.

The matrix models' 4096-row sub-batches run one after another in the calling
thread, and their eigenvalues come from ``tridiagonal.tridiagonal_eigenvalues``,
which is the samplers' one parallel layer.  ``threads`` caps the worker threads
that eigensolve starts; None lets it spread its rows over every usable core
(from n = 16 up, where it runs without the GIL; below that the dense
``eigvalsh`` holds the GIL and runs on one thread).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    RootKind,
    RootSystemSpec,
    _as_count,
    _as_time,
    in_chamber,
    log_weight_batch,
)
from .gaussian import FreezingRegime
from .stat_tests import lag1_autocorr
from .tridiagonal import tridiagonal_eigenvalues

__all__ = [
    "SampleMethod",
    "BatchDiagnostics",
    "SampleBatch",
    "SamplerAbort",
    "sample_tridiag_a",
    "sample_tridiag_b",
    "sample_exact",
    "sample_metropolis",
]

_SUBBATCH = 4096


class SampleMethod(str, enum.Enum):
    TRIDIAG_A = "TridiagA"
    TRIDIAG_B = "TridiagB"
    INDEP_METROPOLIS = "IndepMetropolis"
    HEUN = "Heun"


class SamplerAbort(RuntimeError):
    """Raised when a sampler cannot make progress (maps to exit code 3)."""


@dataclass
class BatchDiagnostics:
    acceptance_rate: float | None = None
    ess: float | None = None
    thin: int | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "acceptance_rate": self.acceptance_rate,
            "ess": self.ess,
            "thin": self.thin,
            "extra": dict(self.extra),
        }


@dataclass
class SampleBatch:
    """A set of fixed-time samples plus everything needed to regenerate it."""

    spec: RootSystemSpec
    t: float
    method: SampleMethod
    seed: int
    points: np.ndarray  # (count, n)
    diagnostics: BatchDiagnostics = field(default_factory=BatchDiagnostics)

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.spec.n:
            raise ValueError(f"points must be (count, {self.spec.n}), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite values")
        ok = in_chamber(self.spec.kind, pts)
        if not np.all(ok):
            bad = int(np.count_nonzero(~np.asarray(ok)))
            raise ValueError(f"{bad} points violate the {self.spec.kind.value} chamber order")
        self.points = pts

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _spawned_children(seed: int, count: int):
    sizes = []
    remaining = int(count)
    while remaining > 0:
        size = min(_SUBBATCH, remaining)
        sizes.append(size)
        remaining -= size
    children = np.random.SeedSequence(int(seed)).spawn(len(sizes))
    return list(zip(children, sizes))


def _spawn_seeds(seed: int | list[int], count: int) -> list[int]:
    """``count`` independent integer seeds derived from ``seed``, an int or a list of ints."""
    children = np.random.SeedSequence(seed if isinstance(seed, list) else int(seed)).spawn(count)
    return [int(ch.generate_state(1)[0]) for ch in children]


def _chi_matrix(rng, dofs: np.ndarray, rows: int) -> np.ndarray:
    """Columns of chi-distributed draws; zero degrees of freedom give zeros."""
    out = np.zeros((rows, dofs.size))
    for col, dof in enumerate(dofs):
        if dof > 0:
            out[:, col] = np.sqrt(rng.chisquare(dof, size=rows))
    return out


def _exact_rows(spec: RootSystemSpec, t: float, child, size: int, threads: int | None) -> np.ndarray:
    """One sub-batch of exact start-0 draws, in descending chamber order."""
    rng = np.random.default_rng(child)
    n = spec.n
    kpair, kaxis = spec.pair_axis
    if spec.kind is RootKind.A:
        diag = rng.standard_normal((size, n))
        off = _chi_matrix(rng, 2.0 * kpair * np.arange(n - 1, 0, -1), size) / math.sqrt(2.0)
        return math.sqrt(t) * tridiagonal_eigenvalues(diag, off, threads=threads)
    i = np.arange(1, n + 1)
    d = _chi_matrix(rng, 2.0 * kaxis + 1.0 + 2.0 * kpair * (n - i), size)
    s = _chi_matrix(rng, 2.0 * kpair * (n - i[:-1]), size)
    # B B^T of the lower bidiagonal B with diagonal d and subdiagonal s
    diag = d**2
    diag[:, 1:] += s**2
    lam = tridiagonal_eigenvalues(diag, d[:, :-1] * s, threads=threads)
    del d, s, diag  # freed before the sqrt allocates, which keeps the large-n peak RSS down
    # B B^T is positive semidefinite; rounding can leave its smallest
    # eigenvalue slightly negative, which the sqrt would turn to NaN
    pts = np.sqrt(t * np.maximum(lam, 0.0, out=lam))
    if spec.kind is RootKind.D:
        flip = rng.random(size) < 0.5
        pts[flip, -1] = -pts[flip, -1]
    return pts


def sample_exact(
    spec: RootSystemSpec, t: float, count: int, seed: int, *, threads: int | None = None
) -> SampleBatch:
    """Exact start-0 samples for any kind, from tridiagonal matrix models.

    Kind A, the beta-Hermite model (checked against the n<=2 quadrature
    oracle): diagonal N(0,1), couplings chi_{beta*(n-i)}/sqrt(2) with
    beta = 2k; the eigenvalue law has density proportional to
    exp(-|y|^2/2) * prod (yi-yj)^(2k), and time enters through the exact
    scaling y -> sqrt(t) * y.

    Kind B, the beta-Laguerre model: in squared coordinates u_i = y_i^2/(2t)
    the target is the Laguerre ensemble with pair weight 2*k2 and axis
    exponent k1 - 1/2; the bidiagonal model realizes it with chi degrees of
    freedom 2*k1 + 1 + 2*k2*(n-i) on the diagonal and 2*k2*(n-i) below (zero
    dof meaning a structural zero, which covers k2 = 0 as independent
    coordinates).  Calibrated against the n<=2 quadrature oracle.

    Kind D uses the B model with zero axis multiplicity and then flips the
    sign of the last coordinate with probability 1/2 (the D law is the
    symmetrization of the B law in that coordinate).
    """
    t = _as_time(t)
    count = _as_count(count, "count")
    threads = None if threads is None else _as_count(threads, "threads")
    pts = np.vstack([_exact_rows(spec, t, child, size, threads) for child, size in _spawned_children(seed, count)])
    method = SampleMethod.TRIDIAG_A if spec.kind is RootKind.A else SampleMethod.TRIDIAG_B
    diag = BatchDiagnostics(acceptance_rate=None, ess=float(count), thin=1)
    return SampleBatch(spec, t, method, int(seed), pts, diag)


def sample_tridiag_a(
    n: int, k: float, t: float, count: int, seed: int, *, threads: int | None = None
) -> SampleBatch:
    """Exact start-0 samples of the A-type law (see :func:`sample_exact`)."""
    return sample_exact(RootSystemSpec.a(n, k), t, count, seed, threads=threads)


def sample_tridiag_b(
    n: int, k1: float, k2: float, t: float, count: int, seed: int, *, threads: int | None = None
) -> SampleBatch:
    """Exact start-0 samples of the B-type law (see :func:`sample_exact`)."""
    return sample_exact(RootSystemSpec.b(n, k1, k2), t, count, seed, threads=threads)


# ---------------------------------------------------------------------------
# Metropolis samplers


def _freezing_regime(spec: RootSystemSpec) -> FreezingRegime:
    """The freezing regime whose limit Gaussian is the spec's proposal."""
    if spec.kind is RootKind.B:
        if spec.k2 <= 0:
            raise ValueError("Metropolis proposal needs k2 > 0")
        nu = spec.k1 / spec.k2
        if nu == 0:
            return FreezingRegime.from_theorem("B3", spec.n, spec.k2, k1=0.0)
        return FreezingRegime.from_theorem("B1", spec.n, spec.k2, nu=nu)
    return FreezingRegime.from_theorem(spec.kind.value, spec.n, spec.k)


def _log_target(spec: RootSystemSpec, t: float, pts: np.ndarray) -> np.ndarray:
    return -0.5 * np.sum(pts**2, axis=-1) / t + log_weight_batch(spec, pts)


_PROPOSAL_INFLATION = 1.5
_MIN_ACCEPTANCE = 1e-3
_AUTOCORR_LIMIT = 0.05
_BURN_IN = 1000
_PILOT = 2000
_MAX_THIN = 64
_CHAIN_CHUNK = 4096


def _run_independence_chain(spec, t, mean, chol, state, state_lp, state_lq, rng, steps, keep):
    """Vectorized proposal generation, sequential accept/reject.

    Returns the rows of the stretch that ``keep`` (a slice of the step index)
    selects, and the chain's state after the last step.  Only ``z`` and the
    proposals are held as whole (steps, n) arrays, about 2n floats per step
    at the proposal GEMM; ``z`` is freed before the target density runs, and
    from there a stretch holds n + 4 floats per step: the proposals, their
    two log densities, ``log u`` and the held index.  Both log densities are
    per-row reductions taken on ``_CHAIN_CHUNK``-row slices, so the weight's
    (rows, roots) temporaries stay at ``_CHAIN_CHUNK`` rows.

    The accept/reject loop runs on Python floats, ``_CHAIN_CHUNK`` steps at a
    time (``tolist`` of each chunk's slice, so the whole chain is never held
    as Python objects).  Each decision is the same float expression as a
    per-row numpy loop would evaluate.  The loop only records which proposal
    the chain holds after each step (-1 while it still holds the incoming
    ``state``); the kept rows are gathered once at the end with one fancy
    index.
    """
    z = rng.standard_normal((steps, mean.size))
    proposals = z @ chol.T
    proposals += mean
    chunks = [slice(start, start + _CHAIN_CHUNK) for start in range(0, steps, _CHAIN_CHUNK)]
    prop_lq = np.empty(steps)
    for rows in chunks:
        prop_lq[rows] = -0.5 * np.sum(z[rows] ** 2, axis=1)
    del z
    prop_lp = np.empty(steps)
    for rows in chunks:
        prop_lp[rows] = _log_target(spec, t, proposals[rows])
    logu = rng.random(steps)
    np.log(logu, out=logu)
    held = np.full(steps, -1, dtype=np.intp)
    accepted = 0
    for rows in chunks:
        taken = []
        for i, u, lp, lq in zip(
            range(rows.start, rows.stop),
            logu[rows].tolist(),
            prop_lp[rows].tolist(),
            prop_lq[rows].tolist(),
        ):
            if u < (lp - state_lp) - (lq - state_lq):
                state_lp = lp
                state_lq = lq
                taken.append(i)
        held[taken] = taken
        accepted += len(taken)
    np.maximum.accumulate(held, out=held)
    kept = held[keep]
    out = proposals[kept]
    out[kept < 0] = state
    if accepted:
        state = proposals[held[-1]].copy()
    return out, state, state_lp, state_lq, accepted


def sample_metropolis(spec: RootSystemSpec, t: float, count: int, seed: int) -> SampleBatch:
    """Independence Metropolis sampling of the start-0 law at time t.

    Proposals come from the freezing-limit Gaussian with its covariance
    inflated by 1.5, N(sqrt(m*t) * target, 1.5 * t * Sigma); proposals
    outside the chamber land on zero target density and are rejected, which
    is what makes the plain Gaussian proposal density exact.

    The chain burns in 1000 steps, picks a thinning lag from a pilot run so
    the emitted points pass a lag-1 autocorrelation screen, and doubles the
    lag until they do.  The screen's limit is max(0.05, 3/sqrt(count)), three
    standard errors of the estimate at small counts and 0.05 from count 3600
    up.  It raises ``SamplerAbort`` if the acceptance rate degenerates
    (< 1e-3), or if the emitted points still fail the screen at the largest
    lag (64).

    Each stretch of the chain (burn-in, pilot, main) draws its proposals and
    log densities as arrays, then decides accept/reject on Python floats in
    chunks of 4096 steps and gathers only the rows it keeps with one fancy
    index: none of the burn-in, all of the pilot and every ``thin``-th row of
    the main stretch (``_run_independence_chain``).  A stretch's working set
    is about 2n floats per step at the proposal GEMM, then n + 4, plus the
    target density's 4096 × (number of positive roots) temporaries.
    """
    t = _as_time(t)
    count = _as_count(count, "count")
    regime = _freezing_regime(spec)
    mean = math.sqrt(regime.m * t) * regime.target
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    chol = np.linalg.cholesky(_PROPOSAL_INFLATION * t * regime.sigma)

    state = mean.copy()
    state_lp = float(_log_target(spec, t, state[None, :])[0])
    if not np.isfinite(state_lp):
        raise SamplerAbort("chain cannot start: target density vanishes at the regime center")
    state_lq = 0.0

    def advance(steps, keep):
        nonlocal state, state_lp, state_lq
        out, state, state_lp, state_lq, acc = _run_independence_chain(
            spec, t, mean, chol, state, state_lp, state_lq, rng, steps, keep
        )
        return out, acc

    def abort(rate):
        return SamplerAbort(
            f"acceptance rate {rate:.2e} below {_MIN_ACCEPTANCE} at proposal inflation "
            f"{_PROPOSAL_INFLATION:g}: the limit-Gaussian proposal does not fit this law; "
            "use sample_exact"
        )

    advance(_BURN_IN, slice(0))
    pilot, pilot_acc = advance(_PILOT, slice(None))
    if pilot_acc / _PILOT < _MIN_ACCEPTANCE:
        raise abort(pilot_acc / _PILOT)
    rho = float(np.max(np.abs(lag1_autocorr(pilot))))
    if rho < _AUTOCORR_LIMIT:
        thin = 1
    else:
        thin = min(_MAX_THIN, max(2, math.ceil(math.log(_AUTOCORR_LIMIT) / math.log(min(rho, 0.999)))))

    # the estimate of rho has a standard error of about 1/sqrt(count), so at
    # small counts the screen must sit above that noise (3 standard errors)
    limit = max(_AUTOCORR_LIMIT, 3.0 / math.sqrt(count))
    accepted = 0
    total = 0
    while True:
        points, acc = advance(count * thin, slice(thin - 1, None, thin))
        accepted += acc
        total += count * thin
        emitted_rho = float(np.max(np.abs(lag1_autocorr(points))))
        if emitted_rho < limit:
            break
        if thin >= _MAX_THIN:
            raise SamplerAbort(
                f"lag-1 autocorrelation {emitted_rho:.3f} of the emitted points is not below "
                f"{limit:g} at the thinning cap {_MAX_THIN} (proposal inflation "
                f"{_PROPOSAL_INFLATION:g}, acceptance rate {accepted / total:.2e}); use sample_exact"
            )
        thin = min(_MAX_THIN, thin * 2)
    acc_rate = accepted / total
    if acc_rate < _MIN_ACCEPTANCE:
        raise abort(acc_rate)
    ess = count * (1.0 - emitted_rho) / (1.0 + emitted_rho)
    diag = BatchDiagnostics(
        acceptance_rate=float(acc_rate),
        ess=float(min(ess, count)),
        thin=int(thin),
        extra={"lag1_autocorr": emitted_rho},
    )
    return SampleBatch(spec, float(t), SampleMethod.INDEP_METROPOLIS, int(seed), points, diag)
