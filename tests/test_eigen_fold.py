"""The parity fold of ``min_eigenpair``.

The diagonal k^2 on k = -N..N equals its reverse, so the ground state is
even: the kernel solves it on the rows k = 0..N with 2b^2 as the first
coupling product and mirrors the half.
The folded solve must agree on all rows, to rounding, with a dense solve
(LAPACK through ``np.linalg.eigh``, on the symmetrized even half, mirrored
onto k = -N..N), return a vector that equals its reverse bit for bit, and
be what the designer and the Mathieu evaluator actually run.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from helpers import even_ground_pair  # noqa: E402
from test_eigen_seed import PROPS, k2_extreme, k2_family  # noqa: E402

from compactseq import design, eigen, mathieu  # noqa: E402


@PROPS
@given(k2_family)
def test_folded_solve_matches_a_dense_solve(case):
    diag, offdiag = case
    lam, vec = even_ground_pair(diag, offdiag, eigh=np.linalg.eigh)
    pair = eigen.min_eigenpair(diag, offdiag)
    assert abs(pair.value - lam) <= 1e-13 * (1.0 + abs(lam))
    assert np.max(np.abs(pair.vector - vec)) <= 1e-12
    assert np.array_equal(pair.vector, pair.vector[::-1])


@PROPS
@given(k2_extreme)
def test_folded_vector_is_mirrored_bit_for_bit(case):
    diag, offdiag = case
    pair = eigen.min_eigenpair(diag, offdiag)
    assert np.array_equal(pair.vector, pair.vector[::-1])
    # within 1e-3 of the contract: the margin the one solve relies on
    assert pair.residual <= 1e-3 * eigen._residual_bound(
        pair.value, max(abs(v) for v in diag) + 2.0 * abs(offdiag)
    )


def test_runtime_solves_are_folded(monkeypatch):
    # every ground solve of the designer and of the Mathieu evaluator
    # climbs on N + 1 rows of its 2N + 1
    full, folded = [], []

    def record(rows, fn):
        def wrapped(d, *args):
            rows.append(len(d))
            return fn(d, *args)
        return wrapped

    monkeypatch.setattr(eigen, "_climb", record(folded, eigen._climb))
    monkeypatch.setattr(design, "min_eigenpair", record(full, design.min_eigenpair))
    monkeypatch.setattr(mathieu, "min_eigenpair", record(full, mathieu.min_eigenpair))
    calls = [(design.design_max_compact, sigma2, taps) for sigma2, taps in
             ((1e-3, 201), (0.1, 201), (1.0, 21), (3.0, 2001), (10.0, 1001))]
    calls.append((design.sweep_curve, [0.01, 1.0], 101))
    calls += [(mathieu._ground_taps, q) for q in (-2.5, 0.25, 7.25, 1e4)]
    calls.append((mathieu.ce0, -2.5, np.linspace(0.0, np.pi, 9)))
    for fn, *args in calls:  # at least one solve per call, however many it takes
        before = len(full)
        fn(*args)
        assert len(full) > before, fn
    assert len(folded) == len(full)
    assert all(f <= n // 2 + 1 for f, n in zip(folded, full))
