"""Property tests for the Mathieu grid sizing: the first grid, the shorter
of the large-|q| half-length and the small-|q| tail bound, resolves the
coefficient tails in one ground solve, and a0 on it agrees with LAPACK on
a longer grid."""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import tridiag_dense  # noqa: E402

from compactseq import eigen, mathieu  # noqa: E402
from compactseq.eigen import min_eigenpair  # noqa: E402

PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _large_q_half_len(q):
    """The half-length that grows as |q|^(1/4), once the whole first grid."""
    return max(24, int(math.ceil(8.0 * (max(0.5 * abs(q), 1.0) / 2.0) ** 0.25)) + 8)


@PROPS
@given(st.floats(-6.0, 6.0), st.sampled_from((-1.0, 1.0)))
def test_first_grid_resolves_the_tails(log10_q, sign):
    q = sign * 10.0**log10_q
    with mock.patch.object(mathieu, "min_eigenpair", wraps=min_eigenpair) as solve:
        ev = mathieu.ce0(q, [0.0])
    c = ev.fourier_coeffs
    n = c.size // 2
    assert c[0] < 1e-12 and c[-1] < 1e-12
    # eight rows past the first grid; LAPACK's value is good to a few
    # eps * ||T|| ~ eps * m^2, so a much longer grid would blur the oracle
    m = n + 8
    k = np.arange(-m, m + 1, dtype=float)
    want = 4.0 * float(np.linalg.eigvalsh(tridiag_dense(k * k, -abs(q) / 4.0))[0])
    assert abs(ev.a0 - want) <= 1e-12 * max(1.0, abs(want))
    assert solve.call_count == 1
    assert n <= _large_q_half_len(q)


@PROPS
@given(st.floats(-300.0, 6.0), st.sampled_from((-1.0, 1.0)))
def test_the_table_and_the_ce0_header_print_one_a0(log10_q, sign):
    # bit for bit, the sign of a zero included: both are 4 times the
    # kernel table's a0/4, not a solve's Rayleigh quotient
    q = sign * 10.0**log10_q
    a0 = mathieu.char_value_a0(q)
    assert mathieu.ce0(q, [0.0]).a0.hex() == a0.hex()
    assert a0.hex() == (4.0 * eigen._estimate(-0.25 * abs(q))).hex()
