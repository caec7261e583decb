"""Log-gamma and log-factorial for the normalization constants.

All normalization constants in this package are assembled in log space from
``log_gamma`` so that huge multiplicity parameters (k ~ 10^4) never overflow.
``log_gamma`` is the standard library's ``math.lgamma`` restricted to x > 0,
where Gamma is positive and its log is real.
"""

from __future__ import annotations

import math

__all__ = ["log_gamma", "log_factorial"]


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma needs x > 0, got {x!r}")
    return math.lgamma(x)


def log_factorial(n: int) -> float:
    """log(n!) via log_gamma; exact zero for n in {0, 1} (``math.lgamma`` is
    exact at 1 and 2)."""
    if n < 0:
        raise ValueError("n! needs n >= 0")
    return log_gamma(n + 1.0)
