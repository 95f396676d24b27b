"""The Laguerre-seeded bisection against the plain one.

``eigen._bracket_min`` skips the Sturm tests whose verdict a Laguerre step
or an earlier test already fixes, so it must return exactly the bracket of
the plain bisection in ``helpers.bisect_min_reference``, and
``min_eigenpair`` exactly the value, vector and residual of
``helpers.min_eigenpair_reference``.  A work-count bound keeps the seed
from silently falling back to one test per mid.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import bisect_min_reference, min_eigenpair_reference  # noqa: E402

from compactseq import design, eigen  # noqa: E402

PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# the pencil A - lambda1*B on k = -N..N, as the designer and Mathieu build it
k2_family = st.tuples(
    st.integers(1, 1000).map(lambda h: 2 * h + 1),
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(k2_family, scaled_palindromes()))
def test_eigenpair_is_bit_identical_to_plain_algorithm(case):
    diag, offdiag = case
    if len(diag) == 1 or offdiag == 0.0:
        return  # no solve: the diagonal answer is returned directly
    ref = min_eigenpair_reference(diag, offdiag)
    try:
        pair = eigen.min_eigenpair(diag, offdiag)
    except eigen.EigenConvergenceError as exc:
        # the plain algorithm's best iterate misses the bound as well
        assert f"residual {ref[2]:.3e} " in str(exc)
        return
    assert (pair.value, pair.residual) == (ref[0], ref[2])
    assert np.array_equal(pair.vector, ref[1])


def test_seed_replaces_most_sturm_tests(monkeypatch):
    # the ground solves of a sigma2 sweep at 201 taps; plain bisection
    # makes about 53 Sturm tests per solve
    counts = dict.fromkeys(("solves", "passes", "tests"), 0)

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(eigen, "_bracket_min", counting("solves", eigen._bracket_min))
    monkeypatch.setattr(eigen, "_laguerre_step", counting("passes", eigen._laguerre_step))
    monkeypatch.setattr(
        eigen, "_has_eigenvalue_below", counting("tests", eigen._has_eigenvalue_below)
    )
    for sigma2 in np.geomspace(3e-4, 10.0, 69):
        design.design_max_compact(float(sigma2), 201)
    assert counts["solves"] >= 69
    assert counts["passes"] <= 6 * counts["solves"]
    assert counts["tests"] <= 8 * counts["solves"]


@PROPS
@given(scaled_palindromes())
def test_bracket_is_bit_identical_to_plain_bisection(case):
    # random, repeated and constant halves at scales 10^+-150
    diag, offdiag = case
    half = np.asarray(diag, dtype=float).tolist()[len(diag) // 2:]
    assert eigen._bracket_min(half, offdiag) == bisect_min_reference(half, offdiag)


@PROPS
@given(k2_family)
def test_folded_bracket_is_bit_identical_to_plain_bisection(case):
    # the even half k = 0..N of the k^2 grid with first coupling product
    # 2b^2, as ``min_eigenpair`` brackets every design and Mathieu grid
    diag, offdiag = case
    half = np.asarray(diag, dtype=float).tolist()[len(diag) // 2:]
    assert eigen._bracket_min(half, offdiag) == bisect_min_reference(half, offdiag)
