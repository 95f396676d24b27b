"""Closed-form bounds for the minimal time-frequency spread product.

For a prescribed periodic frequency spread sigma2 the optimal product
eta_p(sigma2) is sandwiched by

    eta_lower(sigma2) <= eta_p(sigma2) <= eta_upper(sigma2),

where the lower bound is exact for all sigma2 and the upper bound is an
asymptotic estimate meant for small sigma2 (it stays a valid ceiling in
the acceptance range sigma2 <= 0.1 but grows uselessly loose beyond).
Both tend to the right limits: 1/4 as sigma2 -> 0 and 1/2 (lower bound)
as sigma2 -> inf.
"""

from __future__ import annotations

import math

__all__ = ["eta_lower", "eta_upper"]


def _check_sigma2(sigma2: float) -> float:
    s2 = float(sigma2)
    if not s2 > 0.0 or math.isinf(s2):
        raise ValueError("sigma2 must be positive and finite")
    return s2


def eta_lower(sigma2: float) -> float:
    """Exact lower bound sigma2 * (1 - sqrt(sigma2 / (1 + sigma2))).

    It is evaluated as the equal t / (1 + sqrt(t)), t = sigma2/(1 + sigma2),
    which does not cancel as sigma2 grows and tends to 1/2.
    """
    s2 = _check_sigma2(sigma2)
    t = s2 / (1.0 + s2)
    return t / (1.0 + math.sqrt(t))


def eta_upper(sigma2: float) -> float:
    """Small-sigma2 upper estimate (sigma2/8)(sqrt(1+s)/(sqrt(1+s)-1) - 1/2).

    Where sqrt(1 + sigma2) rounds to 1 (sigma2 below about 2.2e-16) the
    quotient is 0/0; there the equal form (r(r + 1) - sigma2/2)/8, which
    does not cancel, is returned instead.
    """
    s2 = _check_sigma2(sigma2)
    r = math.sqrt(1.0 + s2)
    if r == 1.0:
        return (r * (r + 1.0) - 0.5 * s2) / 8.0
    return s2 / 8.0 * (r / (r - 1.0) - 0.5)
