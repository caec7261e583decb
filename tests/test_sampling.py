import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as ss

from freeze_bessel import sampling, tridiagonal
from freeze_bessel.core import RootKind, RootSystemSpec, in_chamber
from freeze_bessel.equilibria import hermite_zeros
from freeze_bessel.quadrature import chamber_moment
from freeze_bessel.sampling import (
    SampleMethod,
    SamplerAbort,
    sample_exact,
    sample_metropolis,
    sample_tridiag_a,
    sample_tridiag_b,
)
from freeze_bessel.sde import SdeConfig, simulate_endpoints
from freeze_bessel.stat_tests import energy_distance_test, ks_test_two_sample
from freeze_bessel.verify import calibration_check, clt_type_a_limit_check, run_suite


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
    threaded = sample_exact(RootSystemSpec.b(2, 1.0, 1.0), 1.0, 6000, seed=5, threads=4)
    assert np.array_equal(serial.points, threaded.points)
    serial = sample_tridiag_a(50, 1.0, 1.0, 5000, seed=5)
    threaded = sample_exact(RootSystemSpec.a(50, 1.0), 1.0, 5000, seed=5, threads=4)
    assert np.array_equal(serial.points, threaded.points)


@pytest.mark.parametrize(
    "spec",
    [RootSystemSpec.a(50, 1.0), RootSystemSpec.b(100, 1.0, 1.0), RootSystemSpec.d(20, 1.0)],
    ids=["A50", "B100", "D20"],
)
def test_exact_sampling_bytes_do_not_depend_on_threads(spec):
    # the three sub-batches (4096, 4096, 7) run in order; the default spreads
    # each n >= 12 eigensolve over every usable core, threads=2 over two
    count = 2 * 4096 + 7
    serial = sample_exact(spec, 1.0, count, seed=11, threads=1).points
    for threads in (None, 2):
        assert sample_exact(spec, 1.0, count, seed=11, threads=threads).points.tobytes() == serial.tobytes()


def test_exact_sampling_threads_only_its_eigensolve(monkeypatch):
    # one parallel layer: the sub-batches run in order, and threads=2 splits
    # each one's dsterf rows in two
    calls = []
    sterf_rows = tridiagonal._sterf_rows

    def recording(dsterf, d, e, start, stop):
        calls.append((d.shape[0], start, stop))
        return sterf_rows(dsterf, d, e, start, stop)

    monkeypatch.setattr(tridiagonal, "_sterf_rows", recording)
    sample_exact(RootSystemSpec.a(50, 1.0), 1.0, 2 * 4096 + 7, 11, threads=2)
    halves = [(4096, 0, 2048), (4096, 2048, 4096)]
    assert sorted(calls[:2]) + sorted(calls[2:4]) + sorted(calls[4:]) == [*halves, *halves, (7, 0, 3), (7, 3, 7)]


# Draws A n = 20 (dsterf rows) in a fresh process at threads=2, then 1, and
# prints whether scipy.linalg was still unloaded before the first draw, the
# threads that imported it, whether the two draws agree, and their SHA-256.
# "eager" binds dsterf before the first draw, as the package did when
# scipy.linalg was a module-level import.
_FIRST_BINDING = """
import hashlib, sys, threading
binders = set()
sys.addaudithook(lambda event, args: event == "import" and str(args[0]).startswith("scipy.linalg")
                 and binders.add(threading.current_thread().name))
from freeze_bessel import RootSystemSpec, sample_exact, tridiagonal
if sys.argv[1] == "eager":
    tridiagonal._dsterf()
unbound = "scipy.linalg" not in sys.modules
draws = [sample_exact(RootSystemSpec.a(20, 5.0), 1.0, 3001, 17, threads=threads).points.tobytes() for threads in (2, 1)]
print(unbound, ",".join(sorted(binders)), draws[0] == draws[1], hashlib.sha256(draws[0]).hexdigest())
"""


def test_first_dsterf_call_under_a_pool_binds_in_the_calling_thread():
    # dsterf is bound on first use; the first call of a process may come with
    # threads=2, and the binding must still happen once, in the calling
    # thread, before the row pool starts
    src = Path(tridiagonal.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    lazy, eager = (
        subprocess.run([sys.executable, "-c", _FIRST_BINDING, mode], env=env, capture_output=True, text=True,
                       timeout=120, check=True).stdout.split()
        for mode in ("lazy", "eager")
    )
    assert lazy[:3] == ["True", "MainThread", "True"]
    assert eager[1:3] == ["MainThread", "True"]
    assert lazy[3] == eager[3]


def test_large_n_sampling_memory_stays_linear_in_n():
    # dense (512, 200, 200) matrices alone would take 156 MiB
    tracemalloc.start()
    try:
        sample_exact(RootSystemSpec.a(200, 1e4), 1.0, 512, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "spec, rows, bound",
    [
        (RootSystemSpec.a(50, 1e4), 4096, 2.5),
        (RootSystemSpec.a(200, 1e4), 512, 2.5),
        (RootSystemSpec.b(100, 1e4, 1e4), 2048, 3.5),
        (RootSystemSpec.d(20, 1e4), 4096, 3.5),
        (RootSystemSpec.a(12, 1e4), 4096, 2.5),
        (RootSystemSpec.b(15, 1e4, 1e4), 4096, 3.5),
    ],
    ids=["A50", "A200", "B100", "D20", "A12", "B15"],
)
def test_exact_sampling_working_set_over_its_output(spec, rows, bound):
    # the models are built and solved in place: A holds its two diagonals,
    # then the solved rows (peak 2.0x the output); B and D hold d, s and d*s
    # (3.1x).  A fresh array for each elementwise step plus a copy of the
    # diagonals for the solve reads 4.0-4.1x and 5.9-6.0x.  From n = 12 the
    # solve is dsterf's; the dense (rows, n, n) matrices read 14.9x at A12
    # and 17.9x at B15
    tracemalloc.start()
    try:
        batch = sample_exact(spec, 1.0, rows, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * batch.points.nbytes


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
        oracle = chamber_moment(spec, t, lambda y1, y2: y1**2 + y2**2, 2)
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


_A2 = RootSystemSpec.a(2, 5.0)
_COUNTED = {
    "sample_exact-count": lambda c: sample_exact(_A2, 1.0, c, 0).count,
    "sample_metropolis-count": lambda c: sample_metropolis(_A2, 1.0, c, 0).count,
    "SdeConfig-paths": lambda c: SdeConfig(_A2, [1.0, 0.0], 1.0, 0, paths=c).paths,
    "SdeConfig-steps": lambda c: SdeConfig(_A2, [1.0, 0.0], 1.0, 0, steps=c).resolved_steps,
    "SdeConfig-threads": lambda c: SdeConfig(_A2, [1.0, 0.0], 1.0, 0, threads=c).threads,
    "RootSystemSpec-n": lambda c: RootSystemSpec.a(c, 1.0).n,
    "hermite_zeros-degree": lambda c: len(hermite_zeros(c)),
}


@pytest.mark.parametrize("entry", list(_COUNTED))
def test_sample_counts_are_refused_unless_integral(entry):
    # 2.5 used to run 2 rows, paths or steps, and inf to overflow
    call = _COUNTED[entry]
    for bad in (0, -1, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    for good in (3, 3.0, np.int64(3)):
        value = call(good)
        assert value == 3 and type(value) is int


_SEEDED = {
    "sample_exact": lambda s: sample_exact(_A2, 1.0, 5, s),
    "sample_tridiag_b": lambda s: sample_tridiag_b(2, 1.0, 1.0, 1.0, 5, s),
    "sample_metropolis": lambda s: sample_metropolis(_A2, 1.0, 5, s),
    "SdeConfig": lambda s: SdeConfig(_A2, [1.0, 0.0], 1.0, s),
    "energy_distance_test": lambda s: energy_distance_test(np.zeros(5), np.ones(5), seed=s),
    "run_suite": lambda s: run_suite("lln", seed=s, quick=True),
    "calibration_check": lambda s: calibration_check("A", 3, 200.0, 1.0, count=5, seed=s),
    "clt_type_a_limit_check": lambda s: clt_type_a_limit_check(2, 1.0, 1.0, 1.0, count=5, seed=s),
}


@pytest.mark.parametrize("entry", list(_SEEDED))
def test_seeds_are_refused_unless_a_non_negative_integer(entry):
    # 1.5 used to draw seed 1, and -1 failed with numpy's message, which names nothing
    for bad in (1.5, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            _SEEDED[entry](bad)


def test_integral_seeds_keep_their_bytes():
    ref = sample_exact(_A2, 1.0, 50, 1)
    sde_ref = simulate_endpoints(SdeConfig(_A2, [1.0, 0.5], 0.1, 1, steps=5, paths=50))
    for seed in (1.0, np.int64(1)):
        batch = sample_exact(_A2, 1.0, 50, seed)
        assert batch.points.tobytes() == ref.points.tobytes() and type(batch.seed) is int
        sde = simulate_endpoints(SdeConfig(_A2, [1.0, 0.5], 0.1, seed, steps=5, paths=50))
        assert sde.points.tobytes() == sde_ref.points.tobytes() and type(sde.seed) is int
    # SeedSequence takes integers past the float range, and so does the rule
    assert sample_exact(_A2, 1.0, 50, 10**400).seed == 10**400


def test_thread_counts_are_refused_unless_a_positive_integer():
    # the CLI's --threads refuses these; the library used to run them
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError, match="threads must be an integer >= 1"):
            sample_exact(_A2, 1.0, 5, 0, threads=bad)


def test_metropolis_rejects_bad_arguments():
    # the proposal's freezing regime refuses k = 0
    with pytest.raises(ValueError, match="strength > 0"):
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


def test_metropolis_screen_stays_above_its_noise_at_small_counts():
    # the lag-1 estimate has a standard error of about 1/sqrt(100) = 0.1; a
    # fixed 0.05 screen aborted 14 of these 20 healthy chains
    for seed in range(20):
        batch = sample_metropolis(RootSystemSpec.a(3, 200.0), 1.0, 100, seed)
        assert batch.diagnostics.extra["lag1_autocorr"] < 0.3


def _per_row_chain(spec, t, mean, chol, state, state_lp, state_lq, rng, steps, keep):
    """The accept/reject loop on numpy scalars and rows, one step at a time.

    The reference for ``sampling._run_independence_chain``, which must give
    the same bytes.  It builds the whole stretch and returns the rows that
    ``keep`` selects.
    """
    z = rng.standard_normal((steps, mean.size))
    proposals = mean + z @ chol.T
    prop_lq = -0.5 * np.sum(z**2, axis=1)
    prop_lp = sampling._log_target(spec, t, proposals)
    logu = np.log(rng.random(steps))
    out = np.empty_like(proposals)
    accepted = 0
    for i in range(steps):
        if logu[i] < (prop_lp[i] - state_lp) - (prop_lq[i] - state_lq):
            state = proposals[i]
            state_lp = prop_lp[i]
            state_lq = prop_lq[i]
            accepted += 1
        out[i] = state
    return out[keep], state, state_lp, state_lq, accepted


@pytest.mark.parametrize(
    "spec, count, seed, inflation",
    [
        (RootSystemSpec.a(3, 200.0), 2048, 0, 1.5),  # thin 2: 4096 steps, one whole chunk
        (RootSystemSpec.a(3, 200.0), 3001, 0, 1.5),  # thin 2: 6002 steps, a partial chunk
        (RootSystemSpec.b(2, 50.0, 50.0), 3000, 2, 1.5),
        (RootSystemSpec.b(3, 0.0, 200.0), 3000, 3, 1.5),
        (RootSystemSpec.d(2, 200.0), 3000, 4, 1.5),
        (RootSystemSpec.a(1, 3.0), 3000, 5, 1.5),
        (RootSystemSpec.a(3, 200.0), 3000, 0, 3.0),  # acceptance 0.39, thin 10
        (RootSystemSpec.a(10, 200.0), 2000, 1, 1.5),  # 45 pair roots, thin 8: 16 000 steps
    ],
    ids=["A3-whole-chunk", "A3-partial-chunk", "B2", "B3", "D2", "A1", "A3-low-acceptance", "A10"],
)
def test_chunked_chain_gives_the_per_row_bytes(monkeypatch, spec, count, seed, inflation):
    monkeypatch.setattr(sampling, "_PROPOSAL_INFLATION", inflation)
    fast = sample_metropolis(spec, 1.0, count, seed)
    monkeypatch.setattr(sampling, "_run_independence_chain", _per_row_chain)
    slow = sample_metropolis(spec, 1.0, count, seed)
    assert fast.points.tobytes() == slow.points.tobytes()
    assert fast.diagnostics.to_dict() == slow.diagnostics.to_dict()
    if inflation > 1.5:
        assert fast.diagnostics.acceptance_rate < 0.5


@pytest.mark.parametrize(
    "lift, first_move, keep",
    [
        (0.0, 1, slice(None)),
        (7.0, 6334, slice(None)),
        (7.0, 6334, slice(2, None, 3)),
        (np.inf, None, slice(None)),
        (0.0, 1, slice(0)),
    ],
    ids=["start", "start-held-past-a-chunk", "thin-3-keeps-held-start", "never-accepts", "keeps-none"],
)
def test_chunked_chain_kernel_matches_per_row_kernel(lift, first_move, keep):
    # lifting the incoming state's log density makes the chain hold it for
    # many steps (at inf, for all of them); at thin 3 the kept rows before
    # step 6334 are copies of the incoming state
    spec = RootSystemSpec.a(3, 200.0)
    regime = sampling._freezing_regime(spec)
    mean = np.sqrt(regime.m) * regime.target
    chol = np.linalg.cholesky(1.5 * regime.sigma)
    state_lp = float(sampling._log_target(spec, 1.0, mean[None, :])[0]) + lift
    steps = 2 * sampling._CHAIN_CHUNK + 5
    args = (spec, 1.0, mean, chol, mean.copy(), state_lp, 0.0)
    fast = sampling._run_independence_chain(*args, np.random.default_rng(9), steps, keep)
    slow = _per_row_chain(*args, np.random.default_rng(9), steps, slice(None))
    assert fast[0].shape == (len(range(steps)[keep]), 3)
    assert fast[0].tobytes() == slow[0][keep].tobytes()
    assert np.asarray(fast[1]).tobytes() == np.asarray(slow[1]).tobytes()
    assert fast[2:] == slow[2:]
    moved = np.flatnonzero(np.any(slow[0] != mean, axis=1))
    assert (int(moved[0]) if moved.size else None) == first_move
    if keep == slice(2, None, 3):
        assert np.all(fast[0][: first_move // 3] == mean)


@pytest.mark.parametrize(
    "spec, count, seed, bound_mib",
    [
        (RootSystemSpec.a(3, 200.0), 20000, 0, 3.5),  # thin 2
        (RootSystemSpec.a(3, 200.0), 20000, 5, 7.0),  # the screen fails at thin 2 and reruns at thin 4
        (RootSystemSpec.a(10, 200.0), 5000, 0, 12.0),  # 45 pair roots, thin 8
    ],
    ids=["A3", "A3-thin-4", "A10"],
)
def test_metropolis_chain_memory_stays_chunked(spec, count, seed, bound_mib):
    # a stretch holds z and the proposals whole, then n + 4 floats per step,
    # and the weight's (rows, roots) temporaries for one chunk (peaks 2.8,
    # 5.3 and 7.3 MiB).  The target density on the whole stretch fails all
    # three cases (4.1, 8.5 and 32 MiB), keeping z alive fails the last two
    # (7.2 and 10 MiB), and gathering every row before slicing the kept ones
    # fails the thin-4 case (7.2 MiB)
    tracemalloc.start()
    try:
        sample_metropolis(spec, 1.0, count, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_batch_dict_roundtrip_fields():
    batch = sample_tridiag_a(2, 1.0, 1.0, 500, seed=2)
    d = batch.diagnostics.to_dict()
    assert d["ess"] == 500.0
    assert d["thin"] == 1
    assert d["acceptance_rate"] is None
