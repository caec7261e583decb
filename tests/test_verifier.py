import math

import numpy as np
import pytest

import freeze_bessel as fb
from freeze_bessel.core import RootKind
from freeze_bessel.equilibria import freezing_target
from freeze_bessel import gaussian
from freeze_bessel.gaussian import covariance, precision_matrix
from freeze_bessel.sde import StartDistribution
from freeze_bessel import verify
from freeze_bessel.verify import (
    CALIBRATION_MIN_PASSES,
    CALIBRATION_SEEDS,
    SUITE_TABLE,
    SUITES,
    FreezingRegime,
    calibration_check,
    clt_gaussian_check,
    gaussian_battery,
    identity_reports,
    lln_check,
    one_sided_check,
    run_suite,
    start_distribution_check,
    two_sample_agreement,
)


def test_regime_scale_and_multiplicity_mappings():
    a = FreezingRegime.from_theorem("A", 3, 7.0)
    assert a.m == 14.0  # scale is 2k for kind A
    assert a.spec.k == 7.0
    assert np.array_equal(a.target, freezing_target(RootKind.A, 3).coords)

    b1 = FreezingRegime.from_theorem("B1", 2, 100.0, nu=1.5)
    assert b1.m == 100.0  # scale is beta itself
    assert b1.spec.k1 == 150.0 and b1.spec.k2 == 100.0
    assert np.array_equal(b1.target, freezing_target(RootKind.B, 2, 1.5).coords)
    assert np.allclose(b1.sigma, covariance(precision_matrix(RootKind.B, 2, 1.5)))

    d = FreezingRegime.from_theorem("D", 2, 9.0)
    assert d.m == 9.0
    assert d.spec.k == 9.0

    sigma_d = covariance(precision_matrix(RootKind.D, 3))
    for k1 in (0.0, 1.0):
        b3 = FreezingRegime.from_theorem("B3", 3, 50.0, k1=k1)
        assert b3.spec == fb.RootSystemSpec.b(3, k1, 50.0)
        assert b3.m == 50.0  # scale is k2
        assert np.array_equal(b3.target, freezing_target(RootKind.B, 3, 0.0).coords)
        assert np.array_equal(b3.sigma, sigma_d)
    assert FreezingRegime is gaussian.FreezingRegime


def test_regime_sigma_is_built_on_first_use(monkeypatch):
    # lln_check reads only spec, m and target, so it builds no S and no Sigma
    def refuse(*args, **kwargs):
        raise AssertionError("precision_matrix called")

    monkeypatch.setattr(gaussian, "precision_matrix", refuse)
    for regime, nu, k1 in (("A", None, None), ("B", 1.5, None), ("B", 0.0, None), ("B3", None, 1.0)):
        assert lln_check(regime, 3, 1e4, 1.0, nu=nu, k1=k1, count=200, seed=0).passed
    monkeypatch.undo()
    regime = FreezingRegime.from_theorem("D", 3, 9.0)
    assert regime.sigma is regime.sigma
    assert np.array_equal(regime.sigma, covariance(precision_matrix(RootKind.D, 3)))
    # at n = 1, B3 has no pair roots and Sigma is [[1]]
    assert np.array_equal(FreezingRegime.from_theorem("B3", 1, 50.0, k1=1.0).sigma, [[1.0]])


def test_regime_validation():
    with pytest.raises(ValueError):
        FreezingRegime.from_theorem("B1", 2, 100.0)  # nu missing
    with pytest.raises(ValueError):
        FreezingRegime.from_theorem("B1", 2, 100.0, nu=0.0)
    with pytest.raises(ValueError):
        FreezingRegime.from_theorem("Z", 2, 100.0)
    with pytest.raises(ValueError):
        FreezingRegime.from_theorem("B3", 2, 100.0)  # k1 missing
    with pytest.raises(ValueError):
        FreezingRegime.from_theorem("B3", 2, 100.0, k1=-1.0)
    # a parameter the regime does not take is rejected, not ignored
    for theorem, extra in (("A", {"nu": 1.0}), ("D", {"k1": 1.0}), ("B3", {"k1": 1.0, "nu": 1.0}),
                           ("B1", {"nu": 1.0, "k1": 1.0}), ("A", {"k1": 0.0})):
        with pytest.raises(ValueError, match="takes no"):
            FreezingRegime.from_theorem(theorem, 2, 100.0, **extra)
    # at strength 0 the scale m is 0, and lln_check would divide by sqrt(m t) = 0
    for theorem, extra in (("A", {}), ("B1", {"nu": 1.0}), ("B3", {"k1": 1.0}), ("D", {})):
        for strength in (0.0, -1.0):
            with pytest.raises(ValueError, match="strength > 0"):
                FreezingRegime.from_theorem(theorem, 2, strength, **extra)
    with pytest.raises(ValueError, match="strength > 0"):
        calibration_check("A", 2, 0.0)


def test_regime_center_subtracts_scaled_target():
    regime = FreezingRegime.from_theorem("A", 2, 8.0)
    pts = np.zeros((3, 2))
    centered = regime.center(pts, 2.0)
    assert np.allclose(centered, -math.sqrt(16.0 * 2.0) * regime.target)


def test_gaussian_battery_passes_on_the_true_law():
    regime = FreezingRegime.from_theorem("A", 3, 200.0)
    chol = np.linalg.cholesky(regime.sigma)
    rng = np.random.default_rng(4)
    centered = rng.standard_normal((20000, 3)) @ chol.T
    stats, ok = gaussian_battery(centered, 1.0, regime.sigma)
    assert ok
    assert stats["mean_norm"] < stats["mean_limit"]
    assert stats["cov_frobenius_rel_err"] < 0.05
    assert stats["mahalanobis_ks_p"] > 0.01
    assert all(p > 0.01 for p in stats["per_coordinate_ks_p"])


def test_gaussian_battery_detects_a_shift():
    regime = FreezingRegime.from_theorem("A", 3, 200.0)
    chol = np.linalg.cholesky(regime.sigma)
    rng = np.random.default_rng(4)
    centered = rng.standard_normal((20000, 3)) @ chol.T
    _, ok = gaussian_battery(centered + 0.05, 1.0, regime.sigma)
    assert not ok
    with pytest.raises(ValueError):
        gaussian_battery(centered[:, 0], 1.0, regime.sigma)


def test_lln_concentrates_at_high_multiplicity_only():
    good = lln_check("A", 2, 10_000.0, 1.0, count=20000, seed=0)
    assert good.passed
    assert good.statistics["sup_norm_q95"] < 0.05
    bad = lln_check("A", 2, 10.0, 1.0, count=5000, seed=0)
    assert not bad.passed  # spread is still wide at k = 10
    with pytest.raises(ValueError):
        lln_check("B", 2, 100.0, 1.0)  # nu missing
    with pytest.raises(ValueError):
        lln_check("B3", 2, 100.0, 1.0)  # k1 missing
    with pytest.raises(ValueError):
        lln_check("Q", 2, 100.0, 1.0)
    with pytest.raises(ValueError):
        lln_check("B", 2, 100.0, 1.0, nu=1.0, k1=1.0)
    with pytest.raises(ValueError):
        lln_check("A", 2, 100.0, 1.0, nu=1.0)
    # B at nu = 0 is the fixed-k1 regime B3 at k1 = 0
    zero_axis = lln_check("B", 3, 10_000.0, 1.0, nu=0.0, count=2000, seed=5)
    b3 = lln_check("B3", 3, 10_000.0, 1.0, k1=0.0, count=2000, seed=5)
    assert zero_axis.statistics == b3.statistics


def test_clt_battery_passes_on_exact_sampler():
    report = clt_gaussian_check("A", 2, 200.0, 1.0, count=20000, seed=1)
    assert report.passed
    assert report.statistics["method"] == "exact"
    assert report.seed == 1
    assert report.tolerances["cov_rel_tol"] == 0.05


def test_one_sided_check_on_zero_axis_multiplicity():
    report = one_sided_check("B0", 2, 200.0, 1.0, count=20000, seed=0)
    assert report.passed
    assert report.statistics["half_space_violations"] == 0
    assert report.statistics["half_normal_ks_p"] > 0.01
    # at k1 = 0 the chi law with one degree of freedom is the half-normal
    assert report.statistics["fixed_axis_ks_p"] == pytest.approx(
        report.statistics["half_normal_ks_p"], abs=1e-9
    )
    with pytest.raises(ValueError):
        one_sided_check("B7", 2, 200.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        one_sided_check("B0", 1, 200.0, 1.0, seed=0)
    with pytest.raises(ValueError, match="B0 has k1 = 0"):
        one_sided_check("B0", 2, 200.0, 1.0, k1=1.0, seed=0)


def test_two_sample_agreement_null_and_shift():
    spec = fb.RootSystemSpec.a(2, 3.0)
    a = fb.sample_exact(spec, 1.0, 4000, 1)
    b = fb.sample_exact(spec, 1.0, 4000, 2)
    null = two_sample_agreement(a.points, b.points, name="null", parameters={}, seed=0)
    assert null.passed
    alt = two_sample_agreement(a.points, b.points + 0.15, name="alt", parameters={}, seed=0)
    assert not alt.passed
    with pytest.raises(ValueError):
        two_sample_agreement(a.points, b.points[:, :1], name="bad", parameters={}, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_two_sample_agreement_refuses_non_finite_points(bad):
    spec = fb.RootSystemSpec.a(2, 3.0)
    a = fb.sample_exact(spec, 1.0, 1500, 1).points.copy()
    b = fb.sample_exact(spec, 1.0, 1500, 2).points
    a[3, 0] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        two_sample_agreement(a, b, name="bad", parameters={}, seed=0)


def test_calibration_controls_false_positives():
    report = calibration_check("A", 2, 200.0, 1.0, count=5000, seed=1)
    assert report.passed
    assert report.parameters["n_seeds"] == CALIBRATION_SEEDS == 20
    assert report.tolerances == {"min_passes": CALIBRATION_MIN_PASSES} == {"min_passes": 19}
    assert report.statistics["passes"] >= CALIBRATION_MIN_PASSES


def test_identity_reports_all_pass_without_seed():
    reports = identity_reports(n_max_det=8, n_max_residual=12, n_max_potential=12, tilde_n_max=3)
    names = {r.name for r in reports}
    assert {
        "determinant-identity-A",
        "determinant-identity-B",
        "stationarity-residuals",
        "potential-identities",
        "normalization-vs-quadrature",
        "proof-constant-limit-tildeA",
        "proof-constant-limit-tildeB",
    } <= names
    for r in reports:
        assert r.passed, r.name
        assert r.seed is None


def test_identity_report_fails_on_a_nan_grid_value(monkeypatch):
    # a NaN anywhere in the grid is the worst value, not one max() skips
    monkeypatch.setattr(verify, "chamber_weight_integral", lambda spec, **kw: math.nan if spec.n == 1 else 1.0)
    reports = identity_reports(n_max_det=2, n_max_residual=2, n_max_potential=2, tilde_n_max=2)
    quad = next(r for r in reports if r.name == "normalization-vs-quadrature")
    assert not quad.passed
    assert math.isnan(quad.statistics["max_rel_err"])


def test_run_suite_requires_seed_for_randomized_suites():
    with pytest.raises(ValueError, match="seed"):
        run_suite("lln")
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything", seed=0)
    # identities is deterministic and exempt
    reports = run_suite("identities", quick=True)
    assert reports and all(r.passed for r in reports)


def test_start_distribution_suite_quick():
    # quick mode trims paths but keeps full step resolution; the Gaussian
    # limit must be insensitive to an interior start
    reports = run_suite("start-dist", seed=0, quick=True)
    assert reports and all(r.passed for r in reports)
    assert reports[0].statistics["start_kind"] == "point"


def test_suite_reports_draw_independent_seeds():
    # each suite spawns its streams from (seed, suite name), so no two
    # randomized reports share draws (clt-D and one-sided-B0 used to)
    reports = run_suite("all", seed=0, quick=True)
    randomized = [r for r in reports if r.seed is not None]
    seeds = [r.seed for r in randomized]
    assert len(seeds) == 10
    assert len(set(seeds)) == len(seeds)
    # every verdict reads the module constants, and each report owns its tolerances
    constants = {"p_threshold": verify.P_THRESHOLD, "cov_rel_tol": verify.COV_REL_TOL,
                 "mean_sigma_mult": verify.MEAN_SIGMA_MULT, "n_permutations": verify.N_PERMUTATIONS,
                 "tol": verify.LLN_TOL}
    for r in randomized:
        assert r.tolerances and r.tolerances == {key: constants[key] for key in r.tolerances}, r.name
    assert len({id(r.tolerances) for r in reports}) == len(reports)


def test_run_suite_refuses_overrides_a_row_does_not_take():
    with pytest.raises(ValueError, match="takes no n override"):
        run_suite("identities", n=3)
    with pytest.raises(ValueError, match="takes no n_max override"):
        run_suite("lln", seed=0, quick=True, n_max=5)
    # full clt-a runs the covariance trend, which sweeps its own strengths
    with pytest.raises(ValueError, match="covariance_error_trend"):
        run_suite("clt-a", seed=0, strength=300.0)
    # identities draws nothing, so a time other than the default is refused
    with pytest.raises(ValueError, match="takes no t override"):
        run_suite("identities", quick=True, t=5.0)


def test_report_names_carry_method_and_start_kind():
    sde = clt_gaussian_check("B1", 2, 200.0, 1.0, nu=1.0, count=1000, seed=0, start=[1.0, 0.5], steps=200)
    assert sde.name == "clt-B1-sde"
    assert sde.parameters["method"] == sde.statistics["method"] == "sde"
    mu = StartDistribution.uniform([0.36, 0.18], [0.44, 0.22])
    start = start_distribution_check(2, 1.0, 200.0, 1.0, mu, count=1000, steps=200, seed=0)
    assert start.name == "start-distribution-B1-uniform"
    # SDE-backed reports record their step count; exact draws take none
    assert sde.parameters["steps"] == start.parameters["steps"] == 200
    exact = clt_gaussian_check("B1", 2, 200.0, 1.0, nu=1.0, count=1000, seed=0)
    assert "steps" not in exact.parameters


def test_clt_check_refuses_steps_without_a_start():
    # exact draws take no step count, so a given one would be dropped silently
    with pytest.raises(ValueError, match="steps applies to SDE runs"):
        clt_gaussian_check("A", 2, 200.0, 1.0, count=1000, seed=0, steps=7)


def test_reports_do_not_depend_on_threads():
    # 9000 rows are three sub-batches: threads=2 runs the SDE's on a pool and
    # hands the exact draws' eigensolve two threads
    mu = StartDistribution.uniform([0.36, 0.18], [0.44, 0.22])
    checks = (
        lambda threads: clt_gaussian_check("A", 2, 200.0, 1.0, count=9000, seed=0, threads=threads),
        lambda threads: clt_gaussian_check("B1", 2, 200.0, 1.0, nu=1.0, count=9000, seed=0, start=[1.0, 0.5],
                                           steps=50, threads=threads),
        lambda threads: start_distribution_check(2, 1.0, 200.0, 1.0, mu, count=9000, steps=50, seed=0,
                                                 threads=threads),
    )
    for check in checks:
        assert check(None).to_dict() == check(2).to_dict()


def test_suite_registry_names():
    assert SUITES == (
        "identities",
        "lln",
        "clt-a",
        "clt-b1",
        "clt-b2",
        "clt-d",
        "one-sided",
        "start-dist",
        "all",
    )
    # every suite but "all" is rows of the table, in SUITES order
    table_suites = [row.suite for row in SUITE_TABLE]
    assert list(dict.fromkeys(table_suites)) == list(SUITES[:-1])


def test_reports_serialize_to_plain_json_types():
    import json

    report = lln_check("A", 2, 10_000.0, 1.0, count=2000, seed=0)
    payload = report.to_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["name"] == "lln-A"
    assert back["passed"] in (True, False)
    assert set(back) >= {"name", "parameters", "statistics", "tolerances", "passed", "seed"}
