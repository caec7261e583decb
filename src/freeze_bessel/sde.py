"""Path simulation of the interacting particle SDEs.

The generator is (1/2) Laplacian plus the singular drift of the root system:

* kind A: b_i(x) = k * sum_{j != i} 1/(x_i - x_j)
* kind B: b_i(x) = k2 * sum_{j != i} [1/(x_i-x_j) + 1/(x_i+x_j)] + k1/x_i
* kind D: the B drift without the axis term

Each step is a Heun (predictor-corrector) update on the drift with plain
Euler-Maruyama treatment of the additive noise: predict with the entry
drift, re-evaluate at the predicted point, advance with the average.  After
every step the state is projected back to the chamber through the
reflection map, which is how the scheme respects the normal-reflecting
boundary.  The drift is clipped at c_clip/sqrt(h) per coordinate so
near-wall excursions cannot blow a step up.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    RootKind,
    RootSystemSpec,
    _as_count,
    _as_point,
    _as_seed,
    _as_time,
    _chamber_order,
    _project_particle_major,
    project_batch,  # noqa: F401  (perfbench/tracing.py wraps it in this namespace)
)
from .sampling import BatchDiagnostics, SampleBatch, SampleMethod, SamplerAbort, _spawned_children

__all__ = [
    "BUDGET_ENV_VAR",
    "BudgetExceeded",
    "StartDistribution",
    "SdeConfig",
    "drift_batch",
    "simulate_endpoints",
]

BUDGET_ENV_VAR = "FREEZE_BESSEL_BUDGET"
_DEFAULT_BUDGET = 200_000_000
_DEFAULT_STEPS_PER_UNIT_TIME = 2000
_DEFAULT_PATHS = 20_000
_DRIFT_CLIP = 10.0


class BudgetExceeded(RuntimeError):
    """steps * paths exceeded the configured work budget (exit code 3)."""


def path_step_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive")
    return value


# ---------------------------------------------------------------------------
# starting points


def _owned(x) -> np.ndarray:
    """A read-only float copy of ``x``: a start checked once must not move with the caller's array."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)  # compared by identity: the generated == fails on ndarray fields
class StartDistribution:
    """Initial law of the particles: a point, a box, or a point mixture.

    The support must sit strictly inside the chamber; the uniform variant
    draws from a box intersected with the chamber by rejection.  ``SdeConfig``
    checks the start against its spec once, so ``draw`` does not; the
    constructors keep read-only copies of their arrays, so the checked start
    cannot change afterwards.
    """

    kind: str  # "point" | "uniform" | "mixture"
    point: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    points: np.ndarray | None = None
    weights: np.ndarray | None = None

    @classmethod
    def at_point(cls, x) -> "StartDistribution":
        return cls(kind="point", point=_owned(x))

    @classmethod
    def uniform(cls, lo, hi) -> "StartDistribution":
        lo = _owned(lo)
        hi = _owned(hi)
        if lo.shape != hi.shape or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
            raise ValueError("need finite lo < hi componentwise")
        return cls(kind="uniform", lo=lo, hi=hi)

    @classmethod
    def mixture(cls, points, weights) -> "StartDistribution":
        pts = np.atleast_2d(_owned(points))
        w = np.asarray(weights, dtype=float)
        if w.size != pts.shape[0] or not np.all(np.isfinite(w) & (w >= 0)) or w.sum() <= 0:
            raise ValueError("weights must be finite and nonnegative, one per point, not all zero")
        return cls(kind="mixture", points=pts, weights=_owned(w / w.sum()))

    def draw(self, spec: RootSystemSpec, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "point":
            return np.tile(self.point, (size, 1))
        if self.kind == "mixture":
            idx = rng.choice(self.points.shape[0], size=size, p=self.weights)
            return self.points[idx]
        # uniform on box intersected with the chamber interior, by rejection
        out = np.empty((size, spec.n))
        filled = 0
        attempts = 0
        while filled < size:
            attempts += 1
            if attempts > 1000:
                raise ValueError("uniform start box has negligible overlap with the chamber interior")
            block = rng.uniform(self.lo, self.hi, size=(max(size, 1024), spec.n))
            good = block[_chamber_order(spec.kind, block, np.greater)]
            take = min(size - filled, good.shape[0])
            out[filled : filled + take] = good[:take]
            filled += take
        return out


def _validate_start(spec: RootSystemSpec, x0) -> None:
    x = _as_point(x0, spec.n, spec.kind, "start")
    if np.all(x == 0.0):
        raise ValueError("start at the origin is refused: use an exact start-0 sampler instead")
    if not _chamber_order(spec.kind, x, np.greater):
        raise ValueError("start must be strictly inside the chamber (no wall contact)")


# ---------------------------------------------------------------------------
# drift


def _drift_particle_major(spec: RootSystemSpec, x: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """Drift of a particle-major (n, rows) array into ``out``, same shape.

    The pair sums run over the n-1 diagonal offsets d: pair (i, i+d) adds
    1/(x_i - x_{i+d}) to particle i and subtracts it from particle i+d
    (kinds B and D add 1/(x_i + x_{i+d}) to both), so a touching pair gets
    +inf above and -inf below and is pushed apart.  Every term is a
    contiguous row slice, and ``work``, a (3, n, rows) scratch array, takes
    all intermediates, so nothing is allocated per call.
    """
    kpair, kaxis = spec.pair_axis
    inv, plus, both = work
    out.fill(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kpair > 0:
            for d in range(1, spec.n):
                g = np.subtract(x[:-d], x[d:], out=inv[:-d])
                np.divide(1.0, g, out=g)
                if spec.kind is RootKind.A:
                    out[:-d] += g
                    out[d:] -= g
                else:
                    q = np.add(x[:-d], x[d:], out=plus[:-d])
                    np.divide(1.0, q, out=q)
                    out[:-d] += np.add(g, q, out=both[:-d])
                    out[d:] += np.subtract(q, g, out=both[:-d])
            out *= kpair
        if kaxis > 0:
            out += np.divide(kaxis, x, out=inv)


def drift_batch(spec: RootSystemSpec, pts: np.ndarray) -> np.ndarray:
    """Drift field, vectorized over rows; wall contact produces +-inf entries.

    ``pts`` is one vector or rows of vectors, (..., n).  The rows are copied
    particle-major once and run through the kernel of the SDE step loop.
    Memory stays O(rows * n); no (rows, n, n) pair matrix is built.
    """
    x = np.asarray(pts, dtype=float)
    if x.shape[-1] != spec.n:
        raise ValueError(f"expected {spec.n} coordinates, got {x.shape[-1]}")
    xt = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    out = np.empty_like(xt)
    _drift_particle_major(spec, xt, out, np.empty((3, *xt.shape)))
    return np.moveaxis(out, 0, -1)


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SdeConfig:
    """Run configuration of the Heun scheme on a uniform time mesh.

    ``steps`` defaults to 2000 per unit of time.  steps * paths is capped by
    the FREEZE_BESSEL_BUDGET environment variable (2e8 when unset), read when
    the simulation starts.  ``threads`` > 1 runs the 4096-path
    sub-batches on that many threads, the SDE's one parallel layer (it
    calls no eigensolve, so no pool nests inside it); the default runs
    them one after another in the calling thread, with the same bytes.
    Whether the pool pays depends on the regime: at k = 200,
    t = 0.1 and 200 steps, the medians of six runs, serial against
    ``threads=2``, on a 2-core x86_64 container with one BLAS thread, were
    0.221 s against 0.260 s for B n=2 with 16 384 paths (the pool is slower),
    0.340 s against 0.316 s for D n=3 with 12 288 paths, and 1.097 s against
    0.834 s for A n=10 with 12 288 paths.
    """

    spec: RootSystemSpec
    x0: StartDistribution
    t: float
    seed: int
    steps: int | None = None
    paths: int = _DEFAULT_PATHS
    threads: int | None = None

    def __post_init__(self):
        _as_time(self.t)
        object.__setattr__(self, "seed", _as_seed(self.seed))
        object.__setattr__(self, "paths", _as_count(self.paths, "paths"))
        if self.steps is not None:
            object.__setattr__(self, "steps", _as_count(self.steps, "steps"))
        object.__setattr__(self, "threads", None if self.threads is None else _as_count(self.threads, "threads"))
        x0 = self.x0
        if not isinstance(x0, StartDistribution):
            x0 = StartDistribution.at_point(x0)
        object.__setattr__(self, "x0", x0)
        if x0.kind == "point":
            _validate_start(self.spec, x0.point)
        elif x0.kind == "mixture":
            for row in x0.points:
                _validate_start(self.spec, row)
        elif x0.lo.shape != (self.spec.n,):
            raise ValueError(f"uniform start box must have {self.spec.n} coordinates, got shape {x0.lo.shape}")

    @property
    def resolved_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        return max(1, math.ceil(_DEFAULT_STEPS_PER_UNIT_TIME * self.t))


def _simulate_block(cfg: SdeConfig, child, size: int) -> tuple[np.ndarray, int]:
    """Endpoints of one sub-batch, and the rows the reflection map re-sorted."""
    rng = np.random.default_rng(child)
    spec = cfg.spec
    steps = cfg.resolved_steps
    h_all = np.diff(cfg.t * (np.arange(steps + 1) / steps))
    # the state stays particle-major (n, rows) for the whole loop, so each
    # drift pair term is a contiguous row slice; every buffer is reused
    x = np.ascontiguousarray(cfg.x0.draw(spec, rng, size).T)
    draw = np.empty((size, spec.n))
    noise, xp, b0, b1 = (np.empty_like(x) for _ in range(4))
    work = np.empty((3, *x.shape))
    projected = 0
    for h in h_all:
        clip = _DRIFT_CLIP / math.sqrt(h)
        # the same (rows, n) normal stream as a row-major state would draw
        rng.standard_normal(out=draw)
        np.multiply(draw.T, math.sqrt(h), out=noise)
        # Heun step on the drift: plain Euler systematically overshoots a
        # convex decaying repulsion (it holds the entry drift for the whole
        # step), which leaves an outward O(h) mean bias at strong coupling.
        # Averaging entry and predicted-exit drifts removes that term while
        # the noise enters additively and needs no correction.  Each line
        # keeps the operand order of x + b0*h + noise and
        # x + 0.5*(b0 + b1)*h + noise, so the bytes match that formula.
        _drift_particle_major(spec, x, b0, work)
        np.clip(b0, -clip, clip, out=b0)
        np.multiply(b0, h, out=xp)
        xp += x
        xp += noise
        projected += _project_particle_major(spec.kind, xp)
        _drift_particle_major(spec, xp, b1, work)
        np.clip(b1, -clip, clip, out=b1)
        b1 += b0
        b1 *= 0.5
        b1 *= h
        x += b1
        x += noise
        projected += _project_particle_major(spec.kind, x)
    return x.T, projected


def simulate_endpoints(cfg: SdeConfig) -> SampleBatch:
    """Simulate independent paths and return their time-t endpoints as a batch.

    Paths producing NaN (numerically exploded) are dropped and counted in the
    batch diagnostics; the run aborts if every path explodes.  The
    diagnostics also count ``projected_rows``: the rows that the reflection
    map re-sorted, over both projections of every step and every path.
    """
    steps = cfg.resolved_steps
    budget = path_step_budget()
    if steps * cfg.paths > budget:
        raise BudgetExceeded(
            f"steps*paths = {steps * cfg.paths} exceeds budget {budget} "
            f"(raise {BUDGET_ENV_VAR} or lower the workload)"
        )
    jobs = _spawned_children(cfg.seed, cfg.paths)
    if cfg.threads is not None and cfg.threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            blocks = list(pool.map(lambda job: _simulate_block(cfg, *job), jobs))
    else:
        blocks = [_simulate_block(cfg, *job) for job in jobs]
    parts, projected = zip(*blocks)
    pts = np.vstack(parts)
    bad = ~np.all(np.isfinite(pts), axis=1)
    dropped = int(np.count_nonzero(bad))
    if dropped == cfg.paths:
        raise SamplerAbort("all SDE paths produced NaN; reduce the step size")
    if dropped:
        pts = pts[~bad]
    diag = BatchDiagnostics(
        acceptance_rate=None,
        ess=float(pts.shape[0]),
        thin=1,
        extra={"steps": steps, "dropped_paths": dropped, "projected_rows": sum(projected)},
    )
    return SampleBatch(cfg.spec, float(cfg.t), SampleMethod.HEUN, cfg.seed, pts, diag)
