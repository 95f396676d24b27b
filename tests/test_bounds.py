import decimal
import math

import numpy as np
import pytest

from helpers import a0_upper_bound, mclachlan_a0

from compactseq.bounds import eta_lower, eta_upper


def test_frozen_values():
    # evaluated once at 40-digit precision
    assert eta_lower(0.1) == pytest.approx(0.0698488655422236, rel=1e-13)
    assert eta_upper(0.1) == pytest.approx(0.2623511060212685, rel=1e-13)
    assert eta_lower(1.0) == pytest.approx(1 - 1 / math.sqrt(2), rel=1e-13)
    assert eta_upper(0.01) == pytest.approx(0.2512484452640110, rel=1e-13)


def test_limits():
    # eta -> 1/4 as sigma2 -> 0 and the lower bound -> 1/2 as sigma2 -> inf
    assert abs(eta_upper(1e-6) - 0.25) <= 1e-6
    assert abs(eta_lower(1e-6) - 0.0) <= 2e-6
    assert abs(eta_lower(1e6) - 0.5) <= 1e-3


def test_eta_lower_does_not_cancel():
    # against the defining formula in 1000-digit decimal arithmetic; the
    # plain double form is 7e-11 off at 1e6 and reads 0 from about 1e16
    for s2 in (5e-324, 1e-300, 1e-9, 0.1, 10.0, 1e6, 1e10, 1e16, 1e100, 1.7e308):
        with decimal.localcontext() as ctx:
            ctx.prec = 1000
            s = decimal.Decimal(s2)
            want = float(s * (1 - (s / (1 + s)).sqrt()))
        assert abs(eta_lower(s2) - want) <= 1e-15 * want


def test_eta_upper_where_the_root_rounds_to_one():
    # sqrt(1 + sigma2) == 1.0 there, so r - 1 == 0 in the plain form
    assert abs(eta_upper(1e-17) - 0.25) <= 1e-15
    assert abs(eta_upper(5e-324) - 0.25) <= 1e-15
    # values where r > 1 keep the plain formula's bits
    for s2 in (1e-15, 1e-9, 0.1, 10.0):
        r = math.sqrt(1.0 + s2)
        assert eta_upper(s2) == s2 / 8.0 * (r / (r - 1.0) - 0.5)


def test_ordering_and_monotonicity():
    grid = np.geomspace(1e-4, 10.0, 120)
    lows = [eta_lower(s) for s in grid]
    ups = [eta_upper(s) for s in grid]
    assert all(lo < up for lo, up in zip(lows, ups))
    assert all(a < b for a, b in zip(lows, lows[1:]))
    assert all(a < b for a, b in zip(ups, ups[1:]))
    assert all(lo < 0.5 for lo in lows)


def test_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            eta_lower(bad)
        with pytest.raises(ValueError):
            eta_upper(bad)


def test_mclachlan_series():
    assert mclachlan_a0(100.0) == pytest.approx(-180.25324914818765, rel=1e-14)
    with pytest.raises(ValueError):
        mclachlan_a0(3.9)
    # the series sits below its own three-term truncation (all later
    # terms are negative)
    for q in (4.0, 10.0, 100.0, 1e4):
        assert mclachlan_a0(q) < a0_upper_bound(q)


def test_a0_upper_bound_values():
    assert a0_upper_bound(1.0) == -0.25
    assert a0_upper_bound(100.0) == pytest.approx(-180.25)


def test_restricted_dual_closed_form():
    # maximize alpha*l1 + l2 over the closed-form cone
    # l2 < 1 - sqrt(1 + l1^2); the supremum on the boundary curve should
    # land on 1 - sqrt(1 - alpha^2)
    for alpha in (0.3, 0.6, 0.9):
        l1 = np.linspace(0.0, 30.0, 600_001)
        vals = alpha * l1 + 1.0 - np.sqrt(1.0 + l1 * l1)
        got = float(np.max(vals))
        expect = 1.0 - math.sqrt(1.0 - alpha * alpha)
        assert got == pytest.approx(expect, abs=1e-6)
