"""The Laguerre climb that places the inverse-iteration shift.

``eigen._climb`` steps from the Gershgorin bound to the minimum of the even
half and returns a shift with its LDL^T pivots, which inverse iteration
reuses as its factors.  The shift must be a certified no (every pivot
positive, and ``helpers.has_eigenvalue_below`` agrees) within a few
rounding levels of the minimum, ``min_eigenpair`` must agree with the
dense Jacobi oracle, and a work-count bound keeps the climb from silently
taking more passes.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import even_ground_pair, has_eigenvalue_below  # noqa: E402

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


@st.composite
def scaled_palindromes(draw):
    """Random, repeated or constant lists, mirrored into an odd-length
    diagonal equal to its reverse, and an offdiag <= 0, all at a scale
    10^e with |e| <= 150."""
    scale = 10.0 ** draw(st.integers(-150, 150))
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("random", "repeated", "constant")))
    unit = st.floats(-1.0, 1.0)
    if kind == "random":
        values = draw(st.lists(unit, min_size=n, max_size=n))
    elif kind == "repeated":
        pool = draw(st.lists(unit, min_size=1, max_size=3))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        values = [draw(unit)] * n
    values = values[:0:-1] + values
    return [v * scale for v in values], -draw(st.floats(0.0, 1.0)) * scale


def _climbs(diag, offdiag):
    """The (half, b, shift, pivots) of every climb ``min_eigenpair`` makes,
    on the matrix it solves (scaled to ||T|| >= 1/2)."""
    seen = []

    def record(d, b):
        s, p = climb(d, b)
        seen.append((d, b, s, p))
        return s, p

    climb = eigen._climb
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigen, "_climb", record)
        eigen.min_eigenpair(diag, offdiag)
    return seen


def _assert_certified_no_near_minimum(diag, offdiag):
    for d, b, s, p in _climbs(diag, offdiag):
        assert len(p) == len(d) and min(p) > 0.0
        assert not has_eigenvalue_below(d, b * b, s)
        # a few rounding levels below the minimum: w = 4 eps (|s| + 2|b|),
        # floored where the kernel keeps 1/(lam - s) finite
        w = 4.0 * eigen._EPS * max(abs(s) + 2.0 * abs(b), 1e-100)
        assert has_eigenvalue_below(d, b * b, s + 4.0 * w)


@PROPS
@given(scaled_palindromes())
def test_shift_is_a_certified_no(case):
    # random, repeated and constant halves at scales 10^+-150
    _assert_certified_no_near_minimum(*case)


@PROPS
@given(k2_family)
def test_folded_shift_is_a_certified_no(case):
    # the even half k = 0..N of the k^2 grid with first coupling product
    # 2b^2, as ``min_eigenpair`` solves every design and Mathieu grid
    _assert_certified_no_near_minimum(*case)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(k2_small, scaled_palindromes()))
def test_eigenpair_matches_jacobi(case):
    diag, offdiag = case
    if len(diag) == 1 or offdiag == 0.0:
        return  # no solve: the diagonal answer is returned directly
    norm_t = max(abs(v) for v in diag) + 2.0 * abs(offdiag)
    lam, vec = even_ground_pair(diag, offdiag)
    pair = eigen.min_eigenpair(diag, offdiag)
    assert abs(pair.value - lam) <= 1e-13 * norm_t
    assert pair.residual <= eigen._residual_bound(pair.value, norm_t)
    assert np.array_equal(pair.vector, pair.vector[::-1]) and np.all(pair.vector >= 0.0)
    assert abs(math.fsum(pair.vector**2) - 1.0) <= 1e-14


def test_climb_work_is_bounded(monkeypatch):
    # the ground solves of a sigma2 sweep at 201 taps: about 4 Laguerre
    # passes and 1 pivot pass each
    counts = dict.fromkeys(("solves", "passes", "pivots"), 0)

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(eigen, "_climb", counting("solves", eigen._climb))
    monkeypatch.setattr(eigen, "_laguerre_step", counting("passes", eigen._laguerre_step))
    monkeypatch.setattr(eigen, "_pivots", counting("pivots", eigen._pivots))
    for sigma2 in np.geomspace(3e-4, 10.0, 69):
        design.design_max_compact(float(sigma2), 201)
    assert counts["solves"] >= 69
    assert counts["passes"] <= 6 * counts["solves"]
    assert counts["pivots"] <= 2 * counts["solves"]
