import tracemalloc

import numpy as np
import pytest
from scipy import stats as ss

from freeze_bessel import sampling
from freeze_bessel.core import RootKind, RootSystemSpec, in_chamber
from freeze_bessel.quadrature import chamber_moment
from freeze_bessel.sampling import (
    SampleMethod,
    SamplerAbort,
    sample_exact,
    sample_metropolis,
    sample_tridiag_a,
    sample_tridiag_b,
)
from freeze_bessel.stat_tests import ks_test_two_sample


def test_points_live_in_the_closed_chamber():
    for spec in (
        RootSystemSpec.a(4, 1.0),
        RootSystemSpec.b(3, 0.5, 2.0),
        RootSystemSpec.d(3, 1.5),
    ):
        batch = sample_exact(spec, 1.0, 2000, seed=1)
        assert batch.points.shape == (2000, spec.n)
        assert in_chamber(spec.kind, batch.points).all()


def test_same_seed_reproduces_batches_exactly():
    a1 = sample_tridiag_a(3, 1.5, 1.0, 3000, seed=7)
    a2 = sample_tridiag_a(3, 1.5, 1.0, 3000, seed=7)
    assert np.array_equal(a1.points, a2.points)
    a3 = sample_tridiag_a(3, 1.5, 1.0, 3000, seed=8)
    assert not np.array_equal(a1.points, a3.points)


def test_growing_a_batch_preserves_whole_subbatches():
    # seeds are spawned per 4096-point subbatch, so a longer run extends the
    # shorter one without touching the rows already produced
    short = sample_tridiag_a(3, 1.5, 1.0, 4096, seed=7)
    long = sample_tridiag_a(3, 1.5, 1.0, 6000, seed=7)
    assert np.array_equal(short.points, long.points[:4096])


def test_threads_do_not_change_the_output():
    serial = sample_tridiag_b(2, 1.0, 1.0, 1.0, 6000, seed=5)
    threaded = sample_tridiag_b(2, 1.0, 1.0, 1.0, 6000, seed=5, threads=4)
    assert np.array_equal(serial.points, threaded.points)
    serial = sample_tridiag_a(50, 1.0, 1.0, 5000, seed=5)
    threaded = sample_tridiag_a(50, 1.0, 1.0, 5000, seed=5, threads=4)
    assert np.array_equal(serial.points, threaded.points)


@pytest.mark.parametrize(
    "spec",
    [RootSystemSpec.a(50, 1.0), RootSystemSpec.b(100, 1.0, 1.0), RootSystemSpec.d(20, 1.0)],
    ids=["A50", "B100", "D20"],
)
def test_exact_sampling_bytes_do_not_depend_on_threads(spec):
    # the default spreads the n >= 16 eigensolve over every usable core;
    # threads=2 runs the three sub-batches (4096, 4096, 7) on two threads
    count = 2 * 4096 + 7
    serial = sample_exact(spec, 1.0, count, seed=11, threads=1).points
    for threads in (None, 2):
        assert sample_exact(spec, 1.0, count, seed=11, threads=threads).points.tobytes() == serial.tobytes()


def test_large_n_sampling_memory_stays_linear_in_n():
    # dense (512, 200, 200) matrices alone would take 156 MiB
    tracemalloc.start()
    try:
        sample_exact(RootSystemSpec.a(200, 1e4), 1.0, 512, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_time_enters_as_exact_sqrt_scaling():
    a1 = sample_tridiag_a(2, 2.0, 0.75, 2000, seed=11)
    a2 = sample_tridiag_a(2, 2.0, 3.0, 2000, seed=11)
    assert np.array_equal(a2.points, 2.0 * a1.points)
    b1 = sample_tridiag_b(2, 1.0, 1.0, 0.5, 2000, seed=11)
    b2 = sample_tridiag_b(2, 1.0, 1.0, 2.0, 2000, seed=11)
    assert np.array_equal(b2.points, 2.0 * b1.points)


def test_single_particle_a_is_gaussian_for_any_k():
    # with one particle there are no pairs, so the multiplicity cannot matter
    t = 1.7
    batch = sample_tridiag_a(1, 3.0, t, 20000, seed=3)
    p = ss.kstest(batch.points[:, 0], "norm", args=(0.0, np.sqrt(t))).pvalue
    assert p > 0.01


def test_single_particle_b_squared_is_gamma():
    # y^2 / (2t) ~ Gamma(k1 + 1/2) with unit scale
    t, k1 = 0.9, 1.25
    batch = sample_tridiag_b(1, k1, 0.7, t, 20000, seed=4)
    u = batch.points[:, 0] ** 2 / (2.0 * t)
    p = ss.kstest(u, "gamma", args=(k1 + 0.5,)).pvalue
    assert p > 0.01


def test_second_moment_matches_quadrature_oracle():
    cases = [
        (RootSystemSpec.a(2, 1.5), 1.0),
        (RootSystemSpec.b(2, 1.0, 2.0), 0.8),
        (RootSystemSpec.d(2, 1.0), 1.3),
    ]
    for spec, t in cases:
        batch = sample_exact(spec, t, 40000, seed=21)
        emp = float(np.mean(np.sum(batch.points**2, axis=1)))
        oracle = chamber_moment(spec, t, lambda y1, y2: y1**2 + y2**2)
        assert emp == pytest.approx(oracle, rel=0.02)


def test_d_sampler_symmetrizes_the_last_coordinate():
    spec = RootSystemSpec.d(3, 1.0)
    d = sample_exact(spec, 1.0, 3000, seed=9)
    b0 = sample_tridiag_b(3, 0.0, 1.0, 1.0, 3000, seed=9)
    # same underlying eigenvalue draws, last coordinate sign-flipped
    assert np.array_equal(np.abs(d.points), b0.points)
    frac_neg = float(np.mean(d.points[:, -1] < 0))
    assert 0.45 < frac_neg < 0.55


def test_laguerre_rounding_below_zero_is_clamped():
    # at this seed one draw's smallest eigenvalue of B B^T rounds to a tiny
    # negative number; it must come out as a zero coordinate, not as NaN
    seed = 2683977770
    for spec in (RootSystemSpec.b(2, 0.0, 200.0), RootSystemSpec.d(2, 200.0)):
        batch = sample_exact(spec, 1.0, 20000, seed)
        assert np.all(np.isfinite(batch.points))
        assert np.min(np.abs(batch.points[:, -1])) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        sample_tridiag_a(2, -0.5, 1.0, 100, seed=0)
    with pytest.raises(ValueError):
        sample_tridiag_a(2, 1.0, 0.0, 100, seed=0)
    with pytest.raises(ValueError):
        sample_tridiag_b(2, 1.0, -1.0, 1.0, 100, seed=0)
    with pytest.raises(ValueError):
        sample_tridiag_b(2, 1.0, 1.0, 1.0, 0, seed=0)


def test_metropolis_independence_matches_exact_sampler():
    spec = RootSystemSpec.a(2, 5.0)
    m = sample_metropolis(spec, 1.0, 6000, seed=31)
    assert m.method is SampleMethod.INDEP_METROPOLIS
    assert m.diagnostics.acceptance_rate is not None
    assert 0.0 < m.diagnostics.acceptance_rate <= 1.0
    assert m.diagnostics.thin >= 1
    assert in_chamber(RootKind.A, m.points).all()
    e = sample_exact(spec, 1.0, 6000, seed=32)
    for j in range(spec.n):
        _, p = ks_test_two_sample(m.points[:, j], e.points[:, j])
        assert p > 0.01


def test_metropolis_is_deterministic_in_the_seed():
    spec = RootSystemSpec.a(2, 5.0)
    m1 = sample_metropolis(spec, 1.0, 2000, seed=31)
    m2 = sample_metropolis(spec, 1.0, 2000, seed=31)
    assert np.array_equal(m1.points, m2.points)
    assert m1.diagnostics.acceptance_rate == m2.diagnostics.acceptance_rate


def test_metropolis_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_metropolis(RootSystemSpec.a(2, 0.0), 1.0, 100, seed=0)


def test_metropolis_aborts_when_the_proposal_is_far_too_wide(monkeypatch):
    # at inflation 200 almost every proposal leaves the chamber: the chain
    # aborts, and the message names the inflation and the exact sampler
    monkeypatch.setattr(sampling, "_PROPOSAL_INFLATION", 200.0)
    with pytest.raises(SamplerAbort) as info:
        sample_metropolis(RootSystemSpec.a(3, 200.0), 1.0, 1000, 0)
    message = str(info.value)
    assert "proposal inflation 200" in message
    assert "sample_exact" in message
    assert "variant" not in message


def test_metropolis_aborts_when_thinning_cannot_meet_the_autocorrelation_screen(monkeypatch):
    # at inflation 20 the acceptance rate is 0.034, and even the largest
    # thinning lag leaves a lag-1 autocorrelation of 0.10 in the emitted points
    monkeypatch.setattr(sampling, "_PROPOSAL_INFLATION", 20.0)
    with pytest.raises(SamplerAbort) as info:
        sample_metropolis(RootSystemSpec.a(3, 200.0), 1.0, 2000, 0)
    message = str(info.value)
    assert "lag-1 autocorrelation" in message
    assert "thinning cap 64" in message
    assert "sample_exact" in message


def test_batch_dict_roundtrip_fields():
    batch = sample_tridiag_a(2, 1.0, 1.0, 500, seed=2)
    d = batch.diagnostics.to_dict()
    assert d["ess"] == 500.0
    assert d["thin"] == 1
    assert d["acceptance_rate"] is None
