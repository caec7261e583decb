import math

import numpy as np
import pytest

from freeze_bessel import (
    bessel_a_on_diagonal_ray,
    bessel_limit_b1,
    covariance,
    determinant_identity,
    freezing_target,
    log_norm_constant,
    precision_matrix,
    proof_constant_limit,
)
from freeze_bessel.gaussian import _exp_or_inf


def test_precision_matrix_a_two_and_three():
    s2 = precision_matrix("A", 2)
    assert np.allclose(s2.matrix, [[1.5, -0.5], [-0.5, 1.5]], atol=1e-14)
    assert s2.det == pytest.approx(2.0, rel=1e-13)
    assert not s2.matrix.flags.writeable and not s2.chol.flags.writeable

    s3 = precision_matrix("A", 3)
    want = np.array([
        [11 / 6, -2 / 3, -1 / 6],
        [-2 / 3, 7 / 3, -2 / 3],
        [-1 / 6, -2 / 3, 11 / 6],
    ])
    assert np.allclose(s3.matrix, want, atol=1e-13)
    assert s3.det == pytest.approx(6.0, rel=1e-12)


def test_precision_matrix_b():
    # for N=1 the diagonal entry is 2 for every nu
    for nu in (0.25, 1.0, 5.0):
        assert np.allclose(precision_matrix("B", 1, nu=nu).matrix, [[2.0]], atol=1e-14)

    s = precision_matrix("B", 2, nu=1.0)
    h = math.sqrt(2.0) / 2.0
    assert np.allclose(s.matrix, [[3 - h, -h], [-h, 3 + h]], atol=1e-13)
    assert s.det == pytest.approx(8.0, rel=1e-12)


def test_precision_matrix_d():
    s2 = precision_matrix("D", 2)
    assert np.allclose(s2.matrix, np.diag([2.0, 2.0]), atol=1e-13)
    assert np.allclose(covariance(s2), np.diag([0.5, 0.5]), atol=1e-14)

    # the last coordinate decouples for every N
    for n in (2, 3, 5):
        s = precision_matrix("D", n)
        assert np.allclose(s.matrix[-1, :-1], 0.0, atol=1e-13)
        assert np.allclose(s.matrix[:-1, -1], 0.0, atol=1e-13)


@pytest.mark.parametrize("kind, nu", [("A", None), ("B", 0.5), ("B", 1.0), ("B", 3.0), ("D", None)])
def test_precision_matrix_spectrum_closed_form(kind, nu):
    # spec S_A = {1..n}, spec S_B = {2, 4, .., 2n} at every nu, spec S_D = {2, 4, .., 2n-2} and n
    for n in range(2 if kind == "D" else 1, 41):
        evens = 2.0 * np.arange(1, n + 1)
        want = {"A": evens / 2.0, "B": evens, "D": np.sort(np.append(evens[:-1], n))}[kind]
        got = np.linalg.eigvalsh(precision_matrix(kind, n, nu).matrix)
        assert np.max(np.abs(got - want) / want) < 1e-12, (kind, nu, n)


def test_precision_matrix_cholesky_consistent():
    for args in (("A", 5, None), ("B", 4, 0.5), ("D", 4, None)):
        pm = precision_matrix(*args)
        assert np.allclose(pm.chol @ pm.chol.T, pm.matrix, atol=1e-12)
        assert pm.log_det == pytest.approx(2 * np.sum(np.log(np.diag(pm.chol))), rel=1e-12)


def test_covariance_inverts_precision():
    for args in (("A", 3, None), ("B", 3, 2.5), ("D", 3, None)):
        pm = precision_matrix(*args)
        assert np.allclose(pm.matrix @ covariance(pm), np.eye(pm.n), atol=1e-11)


def _dumitriu_edelman_sigma_a(n):
    # first-order large-beta perturbation of the beta-Hermite model (Dumitriu-Edelman):
    # with Q the eigenvectors of the Jacobi matrix with off-diagonal sqrt(n - i),
    # Sigma_A = D^T D + E^T E / 4 for D = Q o Q and E = 2 Q[:-1] o Q[1:]
    off = np.sqrt(np.arange(n - 1, 0, -1.0))
    _, q = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    d, e = q * q, 2.0 * q[:-1] * q[1:]
    return d.T @ d + e.T @ e / 4.0


def test_covariance_a_matches_the_dumitriu_edelman_hermite_perturbation():
    for n in range(2, 41):
        sigma = covariance(precision_matrix("A", n))
        assert np.max(np.abs(_dumitriu_edelman_sigma_a(n) - sigma)) <= 1e-12 * np.max(np.abs(sigma)), n
    # at large n, S itself against the perturbation, with no inverse: S Sigma_DE = I
    for n in (100, 400, 1000):
        residual = precision_matrix("A", n).matrix @ _dumitriu_edelman_sigma_a(n) - np.eye(n)
        assert np.max(np.abs(residual)) <= 1e-11, n


def _dumitriu_edelman_sigma_b(n, nu):
    # the same first-order perturbation of the bidiagonal beta-Laguerre model:
    # B0 has diagonal sqrt(2 nu + 2 (n - i)) and subdiagonal sqrt(2 (n - i));
    # with u_j, v_j its singular vector pairs, P[j, i] = u_j[i] v_j[i] and
    # R[j, i] = u_j[i + 1] v_j[i], Sigma_B = (P P^T + R R^T) / 2, and the
    # singular values are the B(nu) freezing target
    i = np.arange(1, n + 1)
    b0 = np.diag(np.sqrt(2.0 * nu + 2.0 * (n - i))) + np.diag(np.sqrt(2.0 * (n - i[:-1])), -1)
    u, singular, vt = np.linalg.svd(b0)
    p, r = (u * vt.T).T, (u[1:] * vt.T[:-1]).T
    return (p @ p.T + r @ r.T) / 2.0, singular


def _dumitriu_edelman_sigma(n, nu):
    # at nu = 0 the model is B0, whose limit is Sigma_D: the last diagonal entry
    # of B0 is chi_1, whose fluctuation has unit variance, not the 1/2 of the
    # large-dof expansion, so Sigma_D[n, n] = 2 Sigma_DE[n, n] (1/n against 1/(2n))
    sigma_de, singular = _dumitriu_edelman_sigma_b(n, nu)
    if nu == 0.0:
        sigma_de[-1, -1] *= 2.0
    return sigma_de, singular


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 3.0])
def test_covariance_b_matches_the_dumitriu_edelman_laguerre_perturbation(nu):
    # nu = 0 is kind D, which needs n >= 2
    kind, pm_nu = ("D", None) if nu == 0.0 else ("B", nu)
    for n in range(2 if kind == "D" else 1, 31):
        sigma_de, singular = _dumitriu_edelman_sigma(n, nu)
        sigma = covariance(precision_matrix(kind, n, pm_nu))
        assert np.max(np.abs(sigma_de - sigma)) <= 1e-12 * np.max(np.abs(sigma)), n
        target = freezing_target("B", n, nu).coords
        assert np.max(np.abs(singular - target)) <= 1e-12 * np.max(target), n
    # at large n, S itself against the perturbation, with no inverse: S Sigma_DE = I
    # (kind D stops below n = 1000, where its freezing target fails the stationarity gate)
    for n in {0.0: (100, 400), 1.0: (100, 400, 1000)}.get(nu, ()):
        residual = precision_matrix(kind, n, pm_nu).matrix @ _dumitriu_edelman_sigma(n, nu)[0] - np.eye(n)
        assert np.max(np.abs(residual)) <= 1e-11, n


def test_determinant_identities():
    for n in range(1, 13):
        assert determinant_identity("A", n) < 1e-10
        assert precision_matrix("A", n).log_det == pytest.approx(math.log(math.factorial(n)), rel=1e-13)
    for n in range(1, 13):
        for nu in (0.5, 1.0, 2.5):
            assert determinant_identity("B", n, nu=nu) < 1e-10
            assert precision_matrix("B", n, nu).log_det == pytest.approx(
                math.log(math.factorial(n) * 2 ** n), rel=1e-13
            )
    for n in range(2, 13):
        assert determinant_identity("D", n) < 1e-10
        assert precision_matrix("D", n).log_det == pytest.approx(
            math.log(math.factorial(n) * 2 ** (n - 1)), rel=1e-13
        )


def test_norm_constant_known_values():
    assert math.exp(log_norm_constant("cA", n=1, k=3.0)) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-13)
    assert math.exp(log_norm_constant("cA", n=2, k=1.0)) == pytest.approx(1 / (2 * math.pi), rel=1e-13)
    # N=1 B-type: the defining integral is 2^(k1-1/2) Gamma(k1+1/2)
    for k1 in (0.5, 1.0, 2.5):
        want = 1.0 / (2 ** (k1 - 0.5) * math.gamma(k1 + 0.5))
        assert math.exp(log_norm_constant("cB", n=1, k1=k1, k2=9.9)) == pytest.approx(want, rel=1e-12)
    # past the float range the value is inf, as PrecisionMatrix.det is
    log_value = log_norm_constant("cA", n=300, k=0.001)
    assert log_value == pytest.approx(1158.38, rel=1e-5)
    assert _exp_or_inf(log_value) == math.inf


def test_norm_constant_parameter_validation():
    with pytest.raises(ValueError):
        log_norm_constant("cA", n=2)
    with pytest.raises(ValueError):
        log_norm_constant("cQ", n=2, k=1.0)
    with pytest.raises(ValueError):
        log_norm_constant("cB", n=2, k1=1.0)
    with pytest.raises(ValueError, match=r"family 'cA' takes no parameters \['nu', 'k2'\]"):
        log_norm_constant("cA", n=2, k=1.0, nu=5.0, k2=3.0)
    with pytest.raises(ValueError, match=r"family 'tildeA' takes no parameters \['x'\]"):
        log_norm_constant("tildeA", n=2, k=10.0, x=[1.0, 0.0])


@pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [1.0], [math.nan, 1.0], [math.inf, 1.0]])
def test_tilde_b_refuses_a_start_that_is_not_n_finite_coordinates(x):
    with pytest.raises(ValueError, match="tildeB x must be 2 finite coordinates"):
        log_norm_constant("tildeB", n=2, nu=1.0, beta=10.0, x=x)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("family, name", [("tildeA", "k"), ("tildeB", "nu"), ("tildeB", "beta")],
                         ids=["tildeA-k", "tildeB-nu", "tildeB-beta"])
def test_tilde_constants_refuse_a_non_finite_parameter(family, name, value):
    # these reached log_gamma, whose message named neither the family nor the parameter
    params = {"n": 2, "k": 10.0} if family == "tildeA" else {"n": 2, "nu": 1.0, "beta": 10.0}
    with pytest.raises(ValueError, match=f"{family} needs a finite {name} > 0, got {value}"):
        log_norm_constant(family, **{**params, name: value})
    if name == "nu":
        with pytest.raises(ValueError, match=f"tildeB needs a finite nu > 0, got {value}"):
            proof_constant_limit("tildeB", 2, nu=value)


def _non_increasing(errs):
    return all(later <= earlier + 1e-12 for earlier, later in zip(errs, errs[1:]))


def test_proof_constant_limits_a():
    for n in (1, 2, 4, 6):
        errs = proof_constant_limit("tildeA", n)
        assert len(errs) == 4 and errs[-1] < 5e-3 and _non_increasing(errs), errs


def test_proof_constant_limits_b():
    for n, nu in ((1, 0.5), (2, 1.0), (4, 2.5), (6, 1.0)):
        errs = proof_constant_limit("tildeB", n, nu=nu)
        assert len(errs) == 4 and errs[-1] < 5e-3 and _non_increasing(errs), errs


def test_bessel_limit_b1():
    x = np.array([2.0, 1.0])
    y = np.array([1.5, 0.5])
    want = math.exp((x @ x) * (y @ y) / (4 * 2 * (1.0 + 2 - 1)))
    assert bessel_limit_b1(x, y, nu=1.0) == pytest.approx(want, rel=1e-14)
    # symmetric in its arguments, one at the origin
    assert bessel_limit_b1(y, x, nu=1.0) == pytest.approx(want, rel=1e-14)
    assert bessel_limit_b1(np.zeros(2), y, nu=1.0) == 1.0
    with pytest.raises(ValueError):
        bessel_limit_b1(np.array([1.0, 2.0]), y, nu=1.0)  # not in the B chamber
    with pytest.raises(ValueError):
        bessel_limit_b1(x, y, nu=-1.0)
    with pytest.raises(ValueError, match="y must be 2 finite coordinates"):
        bessel_limit_b1(x, np.array([1.5, 0.5, 0.25]), nu=1.0)


def test_bessel_a_on_diagonal_ray():
    x = np.array([1.0, 0.5, -0.2])
    assert bessel_a_on_diagonal_ray(x, 2.0) == pytest.approx(math.exp(2.0 * x.sum()), rel=1e-14)
    assert bessel_a_on_diagonal_ray(x, np.full(3, -0.7)) == pytest.approx(math.exp(-0.7 * x.sum()), rel=1e-14)
    with pytest.raises(ValueError):
        bessel_a_on_diagonal_ray(x, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        bessel_a_on_diagonal_ray(x, np.array([1.0, 2.0, 1.0]))


def test_bessel_limits_past_the_float_range_are_inf():
    # math.exp raised OverflowError here; PrecisionMatrix.det and the constants give inf
    assert bessel_limit_b1([30.0, 1.0], [30.0, 1.0], 0.5) == math.inf
    assert bessel_a_on_diagonal_ray([400.0, 400.0], 2.0) == math.inf
    # in range, and just below the overflow, the value is math.exp's, bit for bit
    x, y = np.array([2.0, 1.0]), np.array([1.5, 0.5])
    assert bessel_limit_b1(x, y, 1.0) == math.exp(float(x @ x) * float(y @ y) / (4.0 * 2 * (1.0 + 2 - 1.0)))
    assert bessel_a_on_diagonal_ray([354.0, 354.5], 1.0) == math.exp(708.5)
    assert bessel_a_on_diagonal_ray([1.0, 0.5, -0.2], -0.7) == math.exp(-0.7 * float(np.sum([1.0, 0.5, -0.2])))


# each Bessel limit called with a point or parameter the point rule refuses
_BESSEL_REFUSALS = {
    "b1-inf-x": (lambda: bessel_limit_b1([math.inf, 1.0], [1.0, 0.5], 1.0), "x must be one or more finite"),
    "b1-nan-nu": (lambda: bessel_limit_b1([2.0, 1.0], [1.0, 0.5], math.nan), "nu must be finite"),
    "a-matrix-x": (lambda: bessel_a_on_diagonal_ray(np.ones((2, 3)), 1.0), "x must be one or more finite"),
    "a-nan-x": (lambda: bessel_a_on_diagonal_ray([1.0, math.nan], 1.0), "x must be one or more finite"),
}


@pytest.mark.parametrize("case", list(_BESSEL_REFUSALS))
def test_bessel_limits_refuse_what_the_point_rule_refuses(case):
    call, message = _BESSEL_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
