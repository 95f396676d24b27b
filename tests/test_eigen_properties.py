"""Property tests for ``min_eigenpair``'s off-diagonal <= 0 contract: the
ground state comes out entrywise nonnegative with no sign fix-up, its value
agrees with LAPACK, and a positive off-diagonal is refused."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import tridiag_dense  # noqa: E402

from compactseq.eigen import min_eigenpair  # noqa: E402

PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

diags = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60)


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
