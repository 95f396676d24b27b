"""The Laguerre climb that places the inverse-iteration shift.

``eigen._climb`` steps from a rational lower estimate of a0(4|b|)/4 (or
the Gershgorin bound) to the minimum of the even half and returns a shift
with the inverse iterate of the one solve that certified it.  The steps see only the rows 0..W-1 that
``eigen._support`` keeps at eps^2, where W is the row from which
Parlett's ratio bound puts the ground state below eps^2; the solve that
certifies the shift runs on the full half.  Every case is the
kernel's one matrix family, k^2 on k = -N..N with a coupling b <= 0,
drawn over N and b.  The shift must be a certified no (the solve meets
no pivot <= 0 and its iterate is positive, and
``helpers.has_eigenvalue_below`` agrees) within a few
rounding levels of the minimum, the ground state must be below eps^2 past W by an oracle
that does not use the kernel, and ``min_eigenpair`` must agree with the
dense Jacobi oracle.  The climb's work counts, and the window on a fixed
sample, are checked in ``test_eigen.py``, which needs no hypothesis.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from helpers import even_ground_pair, has_eigenvalue_below, log_amplitudes  # noqa: E402

from compactseq import design, eigen  # noqa: E402

PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# the pencil A - lambda1*B on k = -N..N, as the designer and Mathieu build it
k2_family = st.tuples(
    st.integers(1, 1000).map(lambda h: 2 * h + 1),
    st.floats(-8.0, 12.0).map(lambda e: 10.0**e),
).map(lambda nl: ((np.arange(nl[0], dtype=float) - nl[0] // 2) ** 2, -0.5 * nl[1]))
# the same on grids small enough for the dense Jacobi oracle
k2_small = st.tuples(
    st.integers(1, 30).map(lambda h: 2 * h + 1),
    st.floats(-8.0, 12.0).map(lambda e: 10.0**e),
).map(lambda nl: ((np.arange(nl[0], dtype=float) - nl[0] // 2) ** 2, -0.5 * nl[1]))


# the same at the extremes: grids up to 61 rows at couplings from 1e-150,
# where b^2 is still a normal float, to 1e76, just below the 2^256 cap
k2_extreme = st.tuples(
    st.integers(1, 30).map(lambda h: 2 * h + 1),
    st.floats(-150.0, 76.0).map(lambda e: 10.0**e),
).map(lambda nl: ((np.arange(nl[0], dtype=float) - nl[0] // 2) ** 2, -nl[1]))


def _climbs(diag, offdiag):
    """The (half, b, shift, iterate) of every climb ``min_eigenpair``
    makes; the half is the one the climb is given, all of it, whatever
    window its steps see."""
    seen = []

    def record(d, b):
        s, y = climb(d, b)
        seen.append((d, b, s, y))
        return s, y

    climb = eigen._climb
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigen, "_climb", record)
        eigen.min_eigenpair(diag, offdiag)
    return seen


def _assert_certified_no_near_minimum(diag, offdiag):
    for d, b, s, y in _climbs(diag, offdiag):
        # the shift is certified on every row of the half, not on the window
        assert len(d) == len(diag) // 2 + 1
        assert len(y) == len(d) and min(y) > 0.0
        assert not has_eigenvalue_below(d, b * b, s)
        # a few rounding levels below the minimum: w = 4 eps (|s| + 2|b|)
        w = 4.0 * eigen._EPS * (abs(s) + 2.0 * abs(b))
        assert has_eigenvalue_below(d, b * b, s + 4.0 * w)


@PROPS
@given(k2_extreme)
def test_shift_is_a_certified_no(case):
    # couplings from 1e-150 to 1e76, far past every runtime grid
    _assert_certified_no_near_minimum(*case)


@PROPS
@given(k2_family)
def test_folded_shift_is_a_certified_no(case):
    # the even half k = 0..N of the k^2 grid with first coupling product
    # 2b^2, as ``min_eigenpair`` solves every design and Mathieu grid
    _assert_certified_no_near_minimum(*case)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(k2_small, k2_extreme))
def test_eigenpair_matches_jacobi(case):
    diag, offdiag = case
    if len(diag) == 1 or offdiag == 0.0:
        return  # no solve: the diagonal answer is returned directly
    norm_t = max(abs(v) for v in diag) + 2.0 * abs(offdiag)
    lam, vec = even_ground_pair(diag, offdiag)
    pair = eigen.min_eigenpair(diag, offdiag)
    assert abs(pair.value - lam) <= 1e-13 * norm_t
    # the one solve meets the contract with room (at most 1.8e-5 of it
    # over this suite's solves); a change that erodes that margin fails
    # here first
    assert pair.residual <= 1e-3 * eigen._residual_bound(pair.value, norm_t)
    assert np.array_equal(pair.vector, pair.vector[::-1]) and np.all(pair.vector >= 0.0)
    assert abs(math.fsum(pair.vector**2) - 1.0) <= 1e-14


# k^2 grids up to 2001 rows at couplings from 5e-4 to 5e6: long grids at
# small lambda1 are where the window cuts
k2_wide = st.tuples(
    st.integers(1, 1000).map(lambda h: 2 * h + 1),
    st.floats(-3.0, 7.0).map(lambda e: 10.0**e),
).map(lambda nl: ((np.arange(nl[0], dtype=float) - nl[0] // 2) ** 2, -0.5 * nl[1]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(k2_wide)
@example(((np.arange(2001, dtype=float) - 1000) ** 2, -28.9))  # the sigma2 = 0.1 design
@example(((np.arange(2001, dtype=float) - 1000) ** 2, -8.0))  # 2|b| = 4^2, so j0 = 5
def test_window_holds_the_ground_state(case):
    # past row W the true ground state is below eps^2 of its largest entry
    diag, offdiag = case
    half = diag[diag.size // 2:].tolist()
    w = eigen._support(abs(offdiag), len(half), eigen._TAIL)
    lam, _ = even_ground_pair(diag, offdiag, eigh=np.linalg.eigh)
    logv = log_amplitudes(half, offdiag, lam)
    assert np.all(logv[w:] < 2.0 * math.log(eigen._EPS))


def _smallest_yes(d, b2, lo):
    """The smallest double at which the even half ``d`` has an eigenvalue
    at or below, by bisection on the Sturm test from the no ``lo``."""
    hi = 0.0  # d_0 = 0: a yes
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if has_eigenvalue_below(d, b2, mid) else (mid, hi)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.floats(-320.0, 2.0), st.floats(-323.0, 2.0))
@example(3, -400.0, math.log10(2e-300))  # b = 0, 2e-300 below the minimum 0
def test_a_laguerre_step_never_passes_the_minimum(n, log_b, log_below):
    # short halves at couplings down to 1e-320, where b^2 underflows, from
    # a point below the smallest yes, down to 1e-323 below it: the step
    # lands at or below that yes to within a few rounding levels
    d = [float(i * i) for i in range(n)]
    b = 10.0**log_b
    yes = _smallest_yes(d, b * b, -2.5 * b - 5e-324)
    x = yes - 10.0**log_below
    assume(x < yes)
    step = eigen._laguerre_step(d, b * b, x)
    assert step is not None and math.isfinite(step)
    assert x + step <= yes + 16.0 * n * eigen._EPS * (abs(yes) + abs(x) + 2.0 * b)
