import math

import pytest

from freeze_bessel.special import log_factorial, log_gamma


def test_log_gamma_half_integers():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    assert log_gamma(1.5) == pytest.approx(math.log(0.5 * math.sqrt(math.pi)), rel=1e-13)


def test_log_gamma_recurrence():
    for x in (0.3, 1.7, 9.2, 41.5):
        assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-12)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)
    for x in (math.inf, math.nan):
        with pytest.raises(ValueError):
            log_gamma(x)


def test_log_factorial():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-14)
    assert log_factorial(20) == pytest.approx(math.lgamma(21.0), rel=1e-14)
    with pytest.raises(ValueError):
        log_factorial(-1)
