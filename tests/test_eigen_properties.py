"""Property tests for ``min_eigenpair``'s contract: on an odd-length
diagonal equal to its reverse with off-diagonal <= 0 the ground state
comes out entrywise nonnegative with no sign fix-up and its value agrees
with LAPACK; a positive off-diagonal, an even-length diagonal and one that
differs from its reverse are refused."""

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
diags = st.lists(entries, min_size=1, max_size=60).map(lambda h: h[:0:-1] + h)


@PROPS
@given(diags, st.floats(-1e3, 0.0))
def test_ground_state_is_nonnegative_unit_and_exact(diag, offdiag):
    pair = min_eigenpair(diag, offdiag)
    v = pair.vector
    assert np.all(v >= 0.0)
    assert v.max() > 0.0
    assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-12
    w0 = float(np.linalg.eigvalsh(tridiag_dense(diag, offdiag))[0])
    assert abs(pair.value - w0) <= 1e-9 * (1.0 + abs(w0))


@PROPS
@given(diags, st.floats(0.0, 1e3, exclude_min=True))
def test_positive_offdiag_is_refused(diag, offdiag):
    with pytest.raises(ValueError):
        min_eigenpair(diag, offdiag)


@PROPS
@given(
    st.lists(entries, max_size=60).filter(lambda d: len(d) % 2 == 0 or d != d[::-1]),
    st.floats(-1e3, 0.0),
)
def test_even_or_non_palindromic_diag_is_refused(diag, offdiag):
    with pytest.raises(ValueError, match="reverse"):
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
    # a NaN off the centre already fails the palindrome test; these pass it
    with pytest.raises(ValueError, match="finite"):
        min_eigenpair(diag, offdiag)
