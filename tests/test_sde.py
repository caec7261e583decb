import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as ss

from freeze_bessel.core import RootKind, RootSystemSpec, in_chamber, project_batch
from freeze_bessel.sampling import SampleMethod, _spawned_children
from freeze_bessel.sde import (
    BudgetExceeded,
    SdeConfig,
    StartDistribution,
    drift_batch,
    simulate_endpoints,
)
from freeze_bessel.verify import translation_invariance_check


def test_drift_closed_forms():
    spec_a = RootSystemSpec.a(3, 2.0)
    x = np.array([3.0, 1.0, 0.0])
    want = 2.0 * np.array([1.0 / 2 + 1.0 / 3, -1.0 / 2 + 1.0, -1.0 / 3 - 1.0])
    assert np.allclose(drift_batch(spec_a, x), want, atol=1e-14)

    spec_b = RootSystemSpec.b(2, 1.5, 0.5)
    y = np.array([2.0, 1.0])
    pair = np.array([1.0 / 1 + 1.0 / 3, -1.0 / 1 + 1.0 / 3])
    axis = np.array([1.5 / 2.0, 1.5 / 1.0])
    assert np.allclose(drift_batch(spec_b, y), 0.5 * pair + axis, atol=1e-14)

    spec_d = RootSystemSpec.d(2, 0.5)
    assert np.allclose(drift_batch(spec_d, y), 0.5 * pair, atol=1e-14)

    # k = 0 freezes the interaction off entirely
    assert np.array_equal(drift_batch(RootSystemSpec.a(3, 0.0), x), np.zeros(3))


def test_drift_wall_behavior():
    spec = RootSystemSpec.a(2, 1.0)
    wall = np.array([[1.0, 1.0]])
    out = drift_batch(spec, wall)
    assert np.isinf(out).any()
    # a touching pair and a particle on the B axis give infinite entries
    assert np.array_equal(drift_batch(spec, np.array([1.0, 1.0])), np.array([np.inf, -np.inf]))
    assert np.array_equal(drift_batch(RootSystemSpec.b(1, 1.0, 1.0), np.array([0.0])), np.array([np.inf]))


def test_drift_batch_refuses_the_wrong_width():
    # an n = 2 kernel sums adjacent pairs only: on a width-3 row it would give
    # [1, 0, -1], not the A drift [1.5, 0, -1.5] of that row
    with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
        drift_batch(RootSystemSpec.a(2, 1.0), np.array([[3.0, 2.0, 1.0]]))
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        drift_batch(RootSystemSpec.b(3, 1.0, 1.0), np.array([2.0, 1.0]))
    assert np.array_equal(drift_batch(RootSystemSpec.a(3, 1.0), np.array([[3.0, 2.0, 1.0]])),
                          np.array([[1.5, 0.0, -1.5]]))


def test_drift_at_contact_pushes_the_pair_apart():
    # touching pair (1, 1): +inf on the upper particle, -inf on the lower one
    out = drift_batch(RootSystemSpec.a(3, 2.0), np.array([[2.0, 1.0, 1.0]]))
    assert np.array_equal(out, np.array([[4.0, np.inf, -np.inf]]))
    contacts = {
        RootSystemSpec.a(3, 2.0): [[2.0, 1.0, 1.0], [1.0, 1.0, -1.0]],
        RootSystemSpec.b(3, 1.0, 2.0): [[2.0, 1.0, 1.0], [1.0, 1.0, 0.5], [2.0, 1.0, 0.0]],
        RootSystemSpec.b(3, 0.0, 2.0): [[2.0, 1.0, 1.0], [1.0, 1.0, 0.5]],
        RootSystemSpec.d(3, 2.0): [[2.0, 1.0, 1.0], [2.0, 1.0, -1.0], [1.0, 1.0, 0.5]],
    }
    for spec, rows in contacts.items():
        out = drift_batch(spec, np.array(rows))
        assert not np.isnan(out).any(), (spec, out)
        assert np.isinf(out).any(axis=1).all()


def _dense_drift_and_scale(spec, x):
    # reference: the (rows, n, n) pair-matrix formula, and the sum of the
    # absolute values of the terms it adds up, per coordinate
    n = spec.n
    eye = np.eye(n, dtype=bool)
    kpair = spec.k2 if spec.kind is RootKind.B else spec.k
    terms = np.where(eye, 0.0, 1.0 / np.where(eye, 1.0, x[:, :, None] - x[:, None, :]))
    if spec.kind is not RootKind.A:
        terms = terms + np.where(eye, 0.0, 1.0 / (x[:, :, None] + x[:, None, :]))
    ref = kpair * np.sum(terms, axis=-1)
    scale = kpair * np.sum(np.abs(terms), axis=-1)
    if spec.kind is RootKind.B and spec.k1 > 0:
        ref = ref + spec.k1 / x
        scale = scale + spec.k1 / np.abs(x)
    return ref, scale


@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_drift_matches_dense_pair_matrix_formula(n):
    rng = np.random.default_rng(n)
    specs = [
        RootSystemSpec.a(n, 200.0),
        RootSystemSpec.b(n, 3.0, 200.0),
        RootSystemSpec.b(n, 0.0, 200.0),
        RootSystemSpec.b(n, 3.0, 0.0),
        RootSystemSpec.d(n, 200.0),
    ]
    for spec in specs:
        x = project_batch(spec.kind, 3.0 * rng.standard_normal((500, n)))
        ref, scale = _dense_drift_and_scale(spec, x)
        got = drift_batch(spec, x)
        assert got.shape == x.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * scale), spec


def test_drift_memory_stays_linear_in_n():
    # dense (4096, 50, 50) pair matrices alone would take 78 MiB each
    spec = RootSystemSpec.a(50, 200.0)
    x = project_batch(spec.kind, np.random.default_rng(0).standard_normal((4096, 50)))
    tracemalloc.start()
    try:
        drift_batch(spec, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_drift_accepts_chamber_point():
    spec = RootSystemSpec.a(2, 1.0)
    assert np.allclose(drift_batch(spec, np.array([1.0, -1.0])), np.array([0.5, -0.5]), atol=1e-15)


def test_start_distribution_draws():
    spec = RootSystemSpec.a(2, 1.0)
    rng = np.random.default_rng(0)
    point = StartDistribution.at_point([1.0, -1.0])
    pts = point.draw(spec, rng, 5)
    assert np.array_equal(pts, np.tile([1.0, -1.0], (5, 1)))

    box = StartDistribution.uniform([0.9, -1.1], [1.1, -0.9])
    draws = box.draw(spec, rng, 4000)
    assert draws.shape == (4000, 2)
    assert (draws[:, 0] >= 0.9).all() and (draws[:, 0] <= 1.1).all()
    assert (draws[:, 1] >= -1.1).all() and (draws[:, 1] <= -0.9).all()
    assert in_chamber(spec.kind, draws).all()

    mix = StartDistribution.mixture(np.array([[1.0, -1.0], [2.0, -2.0]]), [0.25, 0.75])
    md = mix.draw(spec, rng, 8000)
    frac = float(np.mean(md[:, 0] == 2.0))
    assert frac == pytest.approx(0.75, abs=0.03)


@pytest.mark.parametrize("spec, lo, hi", [
    (RootSystemSpec.a(3, 1.0), [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
    (RootSystemSpec.b(2, 1.0, 1.0), [0.0, 0.0], [1.0, 1.0]),
    (RootSystemSpec.d(3, 1.0), [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]),
], ids=["A3", "B2", "D3"])
def test_uniform_start_box_touching_a_wall_draws_strictly_interior_rows(spec, lo, hi):
    x = StartDistribution.uniform(lo, hi).draw(spec, np.random.default_rng(3), 5000)
    assert x.shape == (5000, spec.n)
    if spec.kind is RootKind.D:
        strict = np.all(x[:, :-2] > x[:, 1:-1], axis=1) & (x[:, -2] > np.abs(x[:, -1]))
    else:
        strict = np.all(x[:, :-1] > x[:, 1:], axis=1)
    if spec.kind is RootKind.B:
        strict &= x[:, -1] > 0
    assert strict.all()


def test_config_validation():
    spec = RootSystemSpec.b(2, 1.0, 1.0)
    good = StartDistribution.at_point([1.0, 0.5])
    with pytest.raises(ValueError, match="origin"):
        SdeConfig(spec=RootSystemSpec.a(2, 1.0), x0=StartDistribution.at_point([0.0, 0.0]), t=1.0, seed=0)
    with pytest.raises(ValueError, match="chamber"):
        SdeConfig(spec=spec, x0=StartDistribution.at_point([0.5, 1.0]), t=1.0, seed=0)
    with pytest.raises(ValueError, match="strictly inside"):
        SdeConfig(spec=spec, x0=StartDistribution.at_point([1.0, 0.0]), t=1.0, seed=0)
    for t in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            SdeConfig(spec=spec, x0=good, t=t, seed=0)
    # raw arrays are promoted to point distributions
    cfg = SdeConfig(spec=spec, x0=[1.0, 0.5], t=1.0, seed=0)
    assert isinstance(cfg.x0, StartDistribution)
    assert cfg.resolved_steps == 2000


def test_config_checks_every_start_kind_against_the_spec():
    spec = RootSystemSpec.b(2, 1.0, 1.0)
    # numpy would broadcast a one-wide box to both coordinates
    for lo, hi in (([0.5], [1.5]), ([0.5, 0.5, 0.5], [1.5, 1.5, 1.5])):
        with pytest.raises(ValueError, match="uniform start box must have 2 coordinates"):
            SdeConfig(spec=spec, x0=StartDistribution.uniform(lo, hi), t=1.0, seed=0)
    # non-finite bounds and weights are refused when the start is built, not
    # by rng.uniform (OverflowError) or at the first draw inside the run
    for lo, hi in (([math.nan, 0.0], [1.0, 0.5]), ([0.5, 0.1], [math.inf, 0.4]), ([-math.inf, 0.1], [1.5, 0.4])):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            StartDistribution.uniform(lo, hi)
    for weights in ([math.nan, 1.0], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="weights must be finite"):
            StartDistribution.mixture([[1.0, 0.5], [2.0, 1.0]], weights)
    # a bad mixture row is refused when the config is built, not inside simulate_endpoints
    for rows, match in (
        ([[1.0, 0.5], [0.5, 1.0]], "outside the closed B chamber"),
        ([[1.0, 0.5], [1.0, 0.0]], "strictly inside"),
        ([[1.0, 0.5, 0.2], [2.0, 1.0, 0.5]], "start must be 2 finite coordinates"),
    ):
        with pytest.raises(ValueError, match=match):
            SdeConfig(spec=spec, x0=StartDistribution.mixture(rows, [0.5, 0.5]), t=1.0, seed=0)
    SdeConfig(spec=spec, x0=StartDistribution.uniform([0.5, 0.1], [1.5, 0.4]), t=1.0, seed=0)
    SdeConfig(spec=spec, x0=StartDistribution.mixture([[1.0, 0.5], [2.0, 1.0]], [0.5, 0.5]), t=1.0, seed=0)


def test_start_keeps_its_own_copy_of_the_callers_arrays():
    # the constructors stored views of float64 inputs, so writing to the
    # caller's array moved a start that SdeConfig had already checked
    spec = RootSystemSpec.b(2, 1.0, 1.0)
    x = np.array([1.0, 0.5])
    lo, hi = np.array([0.5, 0.1]), np.array([1.5, 0.4])
    rows, weights = np.array([[1.0, 0.5], [2.0, 1.0]]), np.array([0.5, 0.5])
    starts = {
        "raw": x,
        "point": StartDistribution.at_point(x),
        "uniform": StartDistribution.uniform(lo, hi),
        "mixture": StartDistribution.mixture(rows, weights),
    }
    configs = {name: SdeConfig(spec, start, 0.1, 5, steps=20, paths=64) for name, start in starts.items()}
    want = {name: simulate_endpoints(cfg).points.tobytes() for name, cfg in configs.items()}
    x[:] = [-1.0, 5.0]
    lo[:], hi[:] = [-5.0, -5.0], [-4.0, -4.0]
    rows[:] = [[-1.0, 5.0], [-2.0, 6.0]]
    weights[:] = [1.0, 0.0]
    assert configs["raw"].x0.point.tolist() == configs["point"].x0.point.tolist() == [1.0, 0.5]
    assert configs["uniform"].x0.lo.tolist() == [0.5, 0.1] and configs["uniform"].x0.hi.tolist() == [1.5, 0.4]
    assert configs["mixture"].x0.points.tolist() == [[1.0, 0.5], [2.0, 1.0]]
    assert configs["mixture"].x0.weights.tolist() == [0.5, 0.5]
    assert {name: simulate_endpoints(cfg).points.tobytes() for name, cfg in configs.items()} == want
    start = configs["mixture"].x0
    for held in (configs["point"].x0.point, configs["uniform"].x0.lo, configs["uniform"].x0.hi,
                 start.points, start.weights):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0


def test_budget_enforcement():
    # 20001 * 10000 path steps are just over the fixed 2e8 cap; the check runs
    # before any path is drawn, so the refusal costs nothing
    spec = RootSystemSpec.a(2, 1.0)
    cfg = SdeConfig(spec=spec, x0=[1.0, -1.0], t=1.0, seed=0, steps=20001, paths=10000)
    with pytest.raises(BudgetExceeded, match="200010000 exceeds the cap of 200000000"):
        simulate_endpoints(cfg)


def test_free_particle_matches_brownian_motion():
    # k = 0, n = 1: the path is plain Brownian motion started at x0
    spec = RootSystemSpec.a(1, 0.0)
    x0, t = 0.3, 1.7
    cfg = SdeConfig(spec=spec, x0=[x0], t=t, seed=5, steps=400, paths=30000)
    batch = simulate_endpoints(cfg)
    p = ss.kstest(batch.points[:, 0], "norm", args=(x0, math.sqrt(t))).pvalue
    assert p > 0.01


def test_two_free_particles_match_sorted_brownian_pair():
    # k = 0, n = 2: endpoints are two independent BMs kept in sorted order
    spec = RootSystemSpec.a(2, 0.0)
    x0 = np.array([0.5, -0.5])
    t = 1.0
    cfg = SdeConfig(spec=spec, x0=x0, t=t, seed=6, steps=800, paths=20000)
    batch = simulate_endpoints(cfg)
    ref_rng = np.random.default_rng(123)
    ref = np.sort(x0 + math.sqrt(t) * ref_rng.standard_normal((20000, 2)), axis=1)[:, ::-1]
    for j in range(2):
        p = ss.ks_2samp(batch.points[:, j], ref[:, j]).pvalue
        assert p > 0.01


def _row_major_drift(spec, x):
    # reference: the (rows, n) drift of the row-major step loop
    kpair = spec.k2 if spec.kind is RootKind.B else spec.k
    xt = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    out = np.zeros_like(xt)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kpair > 0:
            for d in range(1, spec.n):
                inv = 1.0 / (xt[:-d] - xt[d:])
                if spec.kind is RootKind.A:
                    out[:-d] += inv
                    out[d:] -= inv
                else:
                    plus = 1.0 / (xt[:-d] + xt[d:])
                    out[:-d] += inv + plus
                    out[d:] += plus - inv
            out *= kpair
        if spec.kind is RootKind.B and spec.k1 > 0:
            out += spec.k1 / xt
    return np.moveaxis(out, 0, -1)


def _row_major_project(kind, x):
    # reference: re-sort the rows outside the closed chamber, on a copy;
    # returns the copy and the number of re-sorted rows
    out = x.copy()
    redo = ~np.all(x[:, :-1] >= x[:, 1:], axis=1)
    if kind is RootKind.B:
        redo |= ~(x[:, -1] >= 0.0) | np.signbit(x[:, -1])
    elif kind is RootKind.D:
        redo |= ~(x[:, -2] >= -x[:, -1])
    y = x[redo]
    if kind is RootKind.A:
        out[redo] = -np.sort(-y, axis=-1)
        return out, int(redo.sum())
    mag = -np.sort(-np.abs(y), axis=-1)
    if kind is RootKind.D:
        odd = (y < 0).sum(axis=-1) % 2 == 1
        mag[..., -1] = np.where(odd, -mag[..., -1], mag[..., -1])
    out[redo] = mag
    return out, int(redo.sum())


def _row_major_endpoints(cfg):
    # reference: the Heun loop on a (rows, n) state, one sub-batch after
    # another; returns the endpoints, drift-clip hits and re-sorted rows
    spec = cfg.spec
    steps = cfg.resolved_steps
    parts, clipped, projected = [], 0, 0
    for child, size in _spawned_children(cfg.seed, cfg.paths):
        rng = np.random.default_rng(child)
        x = cfg.x0.draw(spec, rng, size)
        for h in np.diff(cfg.t * (np.arange(steps + 1) / steps)):
            clip = 10.0 / math.sqrt(h)
            noise = math.sqrt(h) * rng.standard_normal(x.shape)
            raw0 = _row_major_drift(spec, x)
            b0 = np.clip(raw0, -clip, clip)
            xp, hits_p = _row_major_project(spec.kind, x + b0 * h + noise)
            raw1 = _row_major_drift(spec, xp)
            b1 = np.clip(raw1, -clip, clip)
            x, hits = _row_major_project(spec.kind, x + 0.5 * (b0 + b1) * h + noise)
            clipped += int(np.count_nonzero(np.abs(raw0) > clip) + np.count_nonzero(np.abs(raw1) > clip))
            projected += hits_p + hits
        parts.append(x)
    return np.vstack(parts), clipped, projected


@pytest.mark.parametrize("spec, start", [
    (RootSystemSpec.a(3, 0.5), [0.03, 0.0, -0.001]),
    (RootSystemSpec.b(2, 0.0, 200.0), [0.5, 0.02]),
    (RootSystemSpec.b(2, 1.0, 200.0), [0.05, 0.02]),
    (RootSystemSpec.d(3, 200.0), [0.5, 0.05, -0.04]),
], ids=["A3", "B2-k1=0", "B2-k1=1", "D3"])
def test_particle_major_loop_matches_row_major_reference_bytes(spec, start):
    # starts near a wall, so that the drift clip and the reflection map both
    # fire; two sub-batches, run serially and on two threads
    cfg = SdeConfig(spec=spec, x0=start, t=0.02, seed=11, steps=20, paths=4200)
    ref, clipped, projected = _row_major_endpoints(cfg)
    assert clipped > 0 and projected > 0
    assert np.all(np.isfinite(ref))
    for threads in (None, 2):
        batch = simulate_endpoints(replace(cfg, threads=threads))
        assert batch.points.tobytes() == ref.tobytes(), threads
        assert batch.diagnostics.extra["projected_rows"] == projected


def test_simulation_is_deterministic_and_thread_stable():
    spec = RootSystemSpec.b(2, 1.0, 1.0)
    cfg = SdeConfig(spec=spec, x0=[1.0, 0.5], t=0.5, seed=3, steps=50, paths=6000)
    b1 = simulate_endpoints(cfg)
    b2 = simulate_endpoints(cfg)
    assert np.array_equal(b1.points, b2.points)
    b4 = simulate_endpoints(replace(cfg, threads=4))
    assert np.array_equal(b1.points, b4.points)
    assert in_chamber(spec.kind, b1.points).all()
    assert b1.diagnostics.extra["dropped_paths"] == 0
    assert b1.method is SampleMethod.HEUN


def test_step_halving_is_consistent():
    # a mild configuration: halving the step should not move the endpoint law
    spec = RootSystemSpec.a(2, 1.0)
    base = dict(spec=spec, x0=np.array([1.0, -1.0]), t=0.5, seed=9, paths=12000)
    coarse = simulate_endpoints(SdeConfig(steps=250, **base))
    fine = simulate_endpoints(SdeConfig(steps=500, **base))
    for j in range(2):
        p = ss.ks_2samp(coarse.points[:, j], fine.points[:, j]).pvalue
        assert p > 0.01


def test_translation_invariance_report():
    report = translation_invariance_check(3, 10.0, 1.0, -2.0, [2.0, 0.0, -2.0], seed=42)
    assert report.passed
    assert report.statistics["p_value"] > 0.01
    assert report.seed == 42
    assert report.parameters["steps"] == 2000
    # c = 0 short-circuits to exact equality of the two endpoint batches
    same = translation_invariance_check(2, 1.0, 0.5, 0.0, [1.0, -1.0], paths=500, steps=50, seed=1)
    assert same.passed
    assert same.statistics["identical"] is True
    assert same.parameters["steps"] == 50
