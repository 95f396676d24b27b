"""Property tests for ``min_eigenpair``'s contract: on the diagonal k^2
of a grid k = -N..N with off-diagonal <= 0 the ground state comes out
entrywise nonnegative with no sign fix-up and its value agrees with
LAPACK; a positive off-diagonal and any diagonal that is not k^2 (even
length, differing from its reverse, or a palindrome off the family) are
refused."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import tridiag_dense  # noqa: E402

from compactseq.eigen import min_eigenpair  # noqa: E402

PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

entries = st.floats(-1e3, 1e3)
# odd-length palindromes: a drawn list mirrored about its first entry
palindromes = st.lists(entries, min_size=1, max_size=60).map(lambda h: h[:0:-1] + h)
# the diagonal k^2 on k = -N..N, N <= 30
k2_diags = st.integers(0, 30).map(lambda n: np.arange(-n, n + 1, dtype=float) ** 2)


def _is_k2(diag):
    n = len(diag) // 2
    return len(diag) % 2 == 1 and list(diag) == [float(k * k) for k in range(-n, n + 1)]


@PROPS
@given(k2_diags, st.floats(-1e3, 0.0))
def test_ground_state_is_nonnegative_unit_and_exact(diag, offdiag):
    pair = min_eigenpair(diag, offdiag)
    v = pair.vector
    assert np.all(v >= 0.0)
    assert v.max() > 0.0
    assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-12
    w0 = float(np.linalg.eigvalsh(tridiag_dense(diag, offdiag))[0])
    assert abs(pair.value - w0) <= 1e-9 * (1.0 + abs(w0))


@PROPS
@given(k2_diags, st.floats(0.0, 1e3, exclude_min=True))
def test_positive_offdiag_is_refused(diag, offdiag):
    with pytest.raises(ValueError, match="offdiag"):
        min_eigenpair(diag, offdiag)


@PROPS
@given(
    st.one_of(
        st.lists(entries, max_size=60).filter(lambda d: len(d) % 2 == 0 or d != d[::-1]),
        palindromes.filter(lambda d: not _is_k2(d)),
    ),
    st.floats(-1e3, 0.0),
)
def test_even_or_non_palindromic_diag_is_refused(diag, offdiag):
    # and every palindrome off the k^2 family
    with pytest.raises(ValueError, match=r"k\^2"):
        min_eigenpair(diag, offdiag)


@pytest.mark.parametrize(
    "diag, offdiag",
    [
        ([1.0, math.nan, 1.0], -1.0),
        ([1.0, 0.0, 1.0], math.nan),
        ([math.inf, 0.0, math.inf], -1.0),
        ([1.0, 0.0, 1.0], -math.inf),
    ],
)
def test_non_finite_input_is_refused(diag, offdiag):
    # a non-finite diagonal is not k^2; a non-finite coupling fails the
    # ||T|| check
    with pytest.raises(ValueError, match="finite" if np.all(np.isfinite(diag)) else r"k\^2"):
        min_eigenpair(diag, offdiag)
