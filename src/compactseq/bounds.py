"""Closed-form bounds for the minimal time-frequency spread product.

For a prescribed periodic frequency spread sigma2 the optimal product
eta_p(sigma2) is sandwiched by

    eta_lower(sigma2) <= eta_p(sigma2) <= eta_upper(sigma2),

where the lower bound is exact for all sigma2 and the upper bound is an
asymptotic estimate meant for small sigma2 (it stays a valid ceiling in
the acceptance range sigma2 <= 0.1 but grows uselessly loose beyond).
Both tend to the right limits: 1/4 as sigma2 -> 0 and 1/2 (lower bound)
as sigma2 -> inf.

The same large-argument analysis gives a truncated series for the lowest
even characteristic value a0(q) of the angular equation

    y'' + (a - 2 q cos(2 theta)) y = 0,

accurate to a few parts in 1e4 once q is moderately large, plus the
three-term upper bound -2q + 2 sqrt(q) - 1/4 valid for all q > 0.
"""

from __future__ import annotations

import math

__all__ = [
    "eta_lower",
    "eta_upper",
    "MCLACHLAN_Q_MIN",
    "mclachlan_a0",
    "a0_upper_bound",
]


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


MCLACHLAN_Q_MIN = 4.0

# Coefficients of the large-q series for a0, by descending half-power of q.
_A0_SERIES = (
    -1.0 / 32.0,        # q^{-1/2}
    -48.0 / 2.0**7,     # q^{-1}
    -848.0 / 2.0**17,   # q^{-3/2}
    -4752.0 / 2.0**20,  # q^{-2}
    -126752.0 / 2.0**20,  # q^{-5/2}
)


def mclachlan_a0(q: float) -> float:
    """Truncated large-q series for the lowest characteristic value a0(q).

    Only meaningful for q >= 4 (raises below); relative accuracy improves
    like a few 1e-4 and better as q grows.
    """
    q = float(q)
    if q < MCLACHLAN_Q_MIN:
        raise ValueError(f"series needs q >= {MCLACHLAN_Q_MIN}")
    rq = math.sqrt(q)
    total = -2.0 * q + 2.0 * rq - 0.25
    power = 1.0 / rq
    for coeff in _A0_SERIES:
        total += coeff * power
        power /= rq
    return total


def a0_upper_bound(q: float) -> float:
    """Three-term ceiling -2q + 2 sqrt(q) - 1/4 for a0(q), q > 0."""
    q = float(q)
    return -2.0 * q + 2.0 * math.sqrt(q) - 0.25
