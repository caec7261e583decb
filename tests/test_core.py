import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeze_bessel import core
from freeze_bessel import (
    ChamberPoint,
    RootKind,
    RootSystemSpec,
    determinant_identity,
    freezing_potential,
    freezing_target,
    hermite_zeros,
    homogeneity_degree,
    in_chamber,
    laguerre_minus_one_zeros,
    laguerre_zeros,
    log_norm_constant,
    log_weight_batch,
    precision_matrix,
    project_batch,
    proof_constant_limit,
)


def test_spec_constructors_and_accessors():
    a = RootSystemSpec.a(3, 2.0)
    assert a.kind is RootKind.A and a.n == 3 and a.k == 2.0
    b = RootSystemSpec.b(2, 1.0, 4.0)
    assert b.k1 == 1.0 and b.k2 == 4.0
    d = RootSystemSpec.d(2, 0.5)
    assert d.k == 0.5
    with pytest.raises(AttributeError):
        b.k
    with pytest.raises(AttributeError):
        a.k1
    # (pair, axis) multiplicities: kind D is kind B with no axis multiplicity
    assert a.pair_axis == (2.0, 0.0)
    assert b.pair_axis == (4.0, 1.0)
    assert d.pair_axis == (0.5, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        RootSystemSpec.a(0, 1.0)
    with pytest.raises(ValueError):
        RootSystemSpec.d(1, 1.0)
    with pytest.raises(ValueError):
        RootSystemSpec(RootKind.B, 2, 1.0)
    with pytest.raises(ValueError):
        RootSystemSpec(RootKind.A, 2, (1.0, 2.0))
    with pytest.raises(ValueError):
        RootSystemSpec.a(2, -1.0)
    with pytest.raises(ValueError):
        RootSystemSpec.b(2, math.inf, 1.0)
    # a non-integral n is refused, not cut off
    with pytest.raises(ValueError, match="n must be an integer"):
        RootSystemSpec.a(2.7, 1.0)
    with pytest.raises(ValueError, match="n must be an integer"):
        RootSystemSpec.b(np.float64(1.5), 1.0, 1.0)
    for n in (3, 3.0, np.int64(3), np.int32(3)):
        spec = RootSystemSpec.d(n, 1.0)
        assert spec.n == 3 and type(spec.n) is int


def _as_plain(value):
    if dataclasses.is_dataclass(value):
        return {f.name: _as_plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value.tolist() if isinstance(value, np.ndarray) else value


# every library entry that takes a particle count or degree n
_COUNT_ENTRIES = {
    "spec": lambda n: RootSystemSpec.b(n, 1.0, 2.0),
    "hermite_zeros": hermite_zeros,
    "laguerre_zeros": lambda n: laguerre_zeros(n, 0.5),
    "laguerre_minus_one_zeros": laguerre_minus_one_zeros,
    "freezing_target": lambda n: freezing_target("B", n, 1.0),
    "precision_matrix": lambda n: precision_matrix("D", n),
    "determinant_identity": lambda n: determinant_identity("A", n),
    "log_norm_constant": lambda n: log_norm_constant("cB", n=n, k1=1.0, k2=2.0),
    "proof_constant_limit": lambda n: proof_constant_limit("tildeA", n),
}


@pytest.mark.parametrize("entry", list(_COUNT_ENTRIES))
def test_particle_count_is_refused_unless_integral(entry):
    call = _COUNT_ENTRIES[entry]
    for bad in (2.7, math.inf, math.nan):
        with pytest.raises(ValueError, match="n must be an integer"):
            call(bad)
    # the JSON text tells 3 from 3.0, so every recorded n is the int 3
    outputs = {json.dumps(_as_plain(call(n)), default=str) for n in (3, 3.0, np.int64(3))}
    assert len(outputs) == 1


def test_spec_dict_roundtrip():
    for spec in (RootSystemSpec.a(4, 1.5), RootSystemSpec.b(2, 0.5, 3.0), RootSystemSpec.d(3, 2.0)):
        assert RootSystemSpec.from_dict(spec.to_dict()) == spec


def test_in_chamber_by_kind():
    assert in_chamber(RootKind.A, np.array([2.0, 0.0, -1.0]))
    assert not in_chamber(RootKind.A, np.array([0.0, 1.0]))
    assert in_chamber(RootKind.B, np.array([2.0, 0.5]))
    assert not in_chamber(RootKind.B, np.array([2.0, -0.5]))
    # kind D allows a negative last coordinate as long as it is smallest in size
    assert in_chamber(RootKind.D, np.array([2.0, -0.5]))
    assert not in_chamber(RootKind.D, np.array([0.5, -2.0]))
    flags = in_chamber(RootKind.A, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert flags.tolist() == [True, False]


_EDGE_VALUES = (-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan)


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in RootKind for n in (1, 2, 3, 5)
                                     if kind is not RootKind.D or n >= 2])
def test_chamber_predicates_on_ties_signed_zeros_infinities_and_nan(kind, n):
    grid = np.array(list(itertools.product(_EDGE_VALUES, repeat=n)))

    def formula(x, holds):
        # descending order; B adds x_n >= 0; D orders x_1..x_{n-1} and adds x_{n-1} >= |x_n|
        if kind is RootKind.D:
            return all(holds(x[i], x[i + 1]) for i in range(n - 2)) and holds(x[n - 2], abs(x[n - 1]))
        ordered = all(holds(x[i], x[i + 1]) for i in range(n - 1))
        if kind is RootKind.B:
            return ordered and holds(x[n - 1], 0.0)
        return ordered

    closed = [formula(row.tolist(), lambda a, b: a >= b) for row in grid]
    strict = [formula(row.tolist(), lambda a, b: a > b) for row in grid]
    assert in_chamber(kind, grid).tolist() == closed
    assert core._chamber_order(kind, grid, np.greater).tolist() == strict
    assert [in_chamber(kind, row) for row in grid[:50]] == closed[:50]


def test_project_batch_matches_kind_rules():
    x = np.array([-1.0, 2.0, 0.5])
    assert np.array_equal(project_batch(RootKind.A, x), np.array([2.0, 0.5, -1.0]))
    assert np.array_equal(project_batch(RootKind.B, x), np.array([2.0, 1.0, 0.5]))
    # one negative coordinate: kind D keeps the odd sign parity on the last slot
    assert np.array_equal(project_batch(RootKind.D, x), np.array([2.0, 1.0, -0.5]))
    assert np.array_equal(project_batch(RootKind.D, np.array([-1.0, -2.0])), np.array([2.0, 1.0]))


def test_project_batch_returns_chamber_rows_unchanged():
    # rows already in the closed chamber come back as they are, tied signed
    # zeros included; only the rows outside it are re-sorted
    x = np.array([[1.0, 0.0, -0.0], [0.0, 1.0, -1.0]])
    out = project_batch(RootKind.A, x)
    assert np.array_equal(out, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, -1.0]]))
    assert np.signbit(out[0]).tolist() == [False, False, True]
    assert x[1].tolist() == [0.0, 1.0, -1.0]
    # kind B: a negative zero on the axis counts as outside, so the axis
    # drift k1/x_n never sees it
    b = project_batch(RootKind.B, np.array([[2.0, -0.0], [2.0, 0.5]]))
    assert np.array_equal(b, np.array([[2.0, 0.0], [2.0, 0.5]]))
    assert not np.signbit(b).any()


@settings(max_examples=200)
@given(
    st.sampled_from(list(RootKind)),
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
)
def test_projection_idempotent_and_lands_in_chamber(kind, values):
    if kind is RootKind.D and len(values) < 2:
        values = values + [0.0]
    x = np.asarray(values)
    p = project_batch(kind, x)
    assert in_chamber(kind, p)
    assert np.array_equal(project_batch(kind, p), p)
    # projection only permutes and flips signs, sizes are preserved
    assert np.allclose(np.sort(np.abs(p)), np.sort(np.abs(x)))


def test_projection_fixes_chamber_points():
    pts = {
        RootKind.A: np.array([1.0, 0.0, -2.0]),
        RootKind.B: np.array([3.0, 1.0]),
        RootKind.D: np.array([3.0, -1.0]),
    }
    for kind, x in pts.items():
        assert np.array_equal(project_batch(kind, x), x)


def test_chamber_point_validation():
    p = ChamberPoint(RootKind.A, [1.0, -1.0])
    assert p.n == 2
    with pytest.raises(ValueError):
        p.coords[0] = 5.0
    with pytest.raises(ValueError):
        ChamberPoint(RootKind.A, [0.0, 1.0])
    with pytest.raises(ValueError):
        ChamberPoint(RootKind.B, [1.0, np.nan])
    assert ChamberPoint(RootKind.B, project_batch(RootKind.B, [-3.0, 1.0])).coords.tolist() == [3.0, 1.0]


def test_log_weight_closed_forms():
    spec = RootSystemSpec.a(2, 1.5)
    y = np.array([2.0, -1.0])
    assert log_weight_batch(spec, y) == pytest.approx(2 * 1.5 * math.log(3.0), rel=1e-14)

    spec_b = RootSystemSpec.b(1, 0.7, 5.0)
    assert log_weight_batch(spec_b, np.array([2.0])) == pytest.approx(2 * 0.7 * math.log(2.0), rel=1e-14)

    spec_d = RootSystemSpec.d(2, 2.0)
    y = np.array([3.0, 1.0])
    expect = 2 * 2.0 * (math.log(2.0) + math.log(4.0))
    assert log_weight_batch(spec_d, y) == pytest.approx(expect, rel=1e-14)


def test_log_weight_wall_is_minus_infinity():
    spec = RootSystemSpec.a(2, 1.0)
    assert log_weight_batch(spec, np.array([1.0, 1.0])) == -math.inf
    spec_b = RootSystemSpec.b(2, 1.0, 1.0)
    assert log_weight_batch(spec_b, np.array([1.0, 0.0])) == -math.inf
    # zero multiplicity kills the corresponding factor, the wall is no longer singular
    spec_b0 = RootSystemSpec.b(2, 0.0, 1.0)
    assert np.isfinite(log_weight_batch(spec_b0, np.array([1.0, 0.0])))


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32 - 1))
def test_log_weight_batch_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    spec = RootSystemSpec.b(3, 0.8, 1.7)
    pts = project_batch(spec.kind, rng.normal(size=(5, 3)) * 3)
    batch = log_weight_batch(spec, pts)
    single = [log_weight_batch(spec, p) for p in pts]
    assert np.allclose(batch, single, rtol=1e-13, atol=1e-13)


def test_homogeneity_degree_values():
    assert homogeneity_degree(RootSystemSpec.a(4, 1.5)) == pytest.approx(1.5 * 4 * 3 / 2)
    assert homogeneity_degree(RootSystemSpec.b(3, 0.5, 2.0)) == pytest.approx(3 * (0.5 + 2.0 * 2))
    assert homogeneity_degree(RootSystemSpec.d(3, 2.0)) == pytest.approx(2.0 * 3 * 2)
    # kind D is kind B with zero axis multiplicity
    assert homogeneity_degree(RootSystemSpec.d(3, 2.0)) == homogeneity_degree(RootSystemSpec.b(3, 0.0, 2.0))


@settings(max_examples=50)
@given(st.floats(0.1, 10.0))
def test_weight_is_homogeneous(c):
    spec = RootSystemSpec.a(3, 2.0)
    y = np.array([2.0, 0.3, -1.1])
    lhs = log_weight_batch(spec, c * y)
    rhs = 2 * homogeneity_degree(spec) * math.log(c) + log_weight_batch(spec, y)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)


def test_freezing_potential_known_values():
    assert freezing_potential(RootSystemSpec.a(2, 1.0), np.array([1.0, -1.0])) == pytest.approx(
        2 * math.log(2.0) - 1.0, rel=1e-14
    )
    assert freezing_potential(RootSystemSpec.d(2, 1.0), np.array([2.0, 0.0])) == pytest.approx(
        2 * math.log(4.0) - 2.0, rel=1e-14
    )
    assert freezing_potential(RootSystemSpec.b(1, 1.0, 1.0), np.array([math.sqrt(2.0)])) == pytest.approx(
        math.log(2.0) - 1.0, rel=1e-14
    )


def test_freezing_potential_maximized_at_target():
    from freeze_bessel import freezing_target

    # under this normalization the kind-A maximizer sits at sqrt(2) times the
    # Hermite-zero vector; kinds B and D peak at the target itself
    cases = [
        (RootSystemSpec.a(3, 1.0), math.sqrt(2.0) * freezing_target("A", 3).coords),
        (RootSystemSpec.b(2, 1.0, 1.0), freezing_target("B", 2, nu=1.0).coords),
        (RootSystemSpec.d(2, 1.0), freezing_target("D", 2).coords),
    ]
    rng = np.random.default_rng(0)
    for spec, argmax in cases:
        v0 = freezing_potential(spec, argmax)
        for _ in range(25):
            y = project_batch(spec.kind, argmax + 0.3 * rng.standard_normal(spec.n))
            assert freezing_potential(spec, y) <= v0 + 1e-12


def test_a_potential_concave_on_segments():
    spec = RootSystemSpec.a(3, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(40):
        a = project_batch(RootKind.A, rng.uniform(-3, 3, size=3))
        b = project_batch(RootKind.A, rng.uniform(-3, 3, size=3))
        a, b = a + np.array([0.2, 0.0, -0.2]), b + np.array([0.2, 0.0, -0.2])
        mid = freezing_potential(spec, 0.5 * (a + b))
        avg = 0.5 * (freezing_potential(spec, a) + freezing_potential(spec, b))
        assert mid >= avg - 1e-12


def test_freezing_potential_nu_defaults_to_multiplicity_ratio():
    spec = RootSystemSpec.b(2, 3.0, 2.0)
    y = np.array([2.5, 1.0])
    assert freezing_potential(spec, y) == freezing_potential(RootSystemSpec.b(2, 1.5, 1.0), y)
    # only the pair multiplicity is normalized away
    assert freezing_potential(RootSystemSpec.a(2, 3.0), y) == freezing_potential(RootSystemSpec.a(2, 1.0), y)
    with pytest.raises(ValueError):
        freezing_potential(RootSystemSpec.b(2, 1.0, 0.0), y)
    assert freezing_potential(spec, np.array([1.0, 1.0])) == -math.inf
