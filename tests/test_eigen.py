import math

import numpy as np
import pytest

from helpers import jacobi_eigh, tridiag_dense

from compactseq.eigen import (
    EigenPair,
    _bracket_min,
    _has_eigenvalue_below,
    min_eigenpair,
)


def test_oracle_self_check():
    # the Jacobi helper must reproduce A = V diag(w) V' before we trust it
    rng = np.random.default_rng(0)
    a = rng.normal(size=(9, 9))
    a = a + a.T
    w, v = jacobi_eigh(a)
    assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(9), atol=1e-12)
    assert np.all(np.diff(w) >= 0)


def test_frozen_small_matrices():
    # constant tridiagonal {0, -1/2}: eigenvalues cos(j pi / (n+1))
    assert min_eigenpair([0.0, 0.0, 0.0], -0.5).value == pytest.approx(
        -math.sqrt(2) / 2, abs=1e-11
    )
    # 2x2 [[0, -1/2], [-1/2, 1]] -> (1 - sqrt(2))/2
    assert min_eigenpair([0.0, 1.0], -0.5).value == pytest.approx(
        (1 - math.sqrt(2)) / 2, abs=1e-11
    )


def test_diagonal_degenerate():
    pair = min_eigenpair([4.0, 1.0, 9.0], 0.0)
    assert pair.value == 1.0
    assert list(pair.vector) == [0.0, 1.0, 0.0]
    assert pair.residual == 0.0
    assert min_eigenpair([3.0], 0.0).value == 3.0


def test_eigenvalue_count():
    d = [0.0] * 5
    b = 0.5
    # spectrum is cos(j*pi/6), j = 1..5; probe strictly between eigenvalues
    w, _ = jacobi_eigh(tridiag_dense(d, b))
    for shift in (-2.0, -0.6, -0.2, 0.31, 0.75, 2.0):
        assert _has_eigenvalue_below(d, b * b, shift) == bool(np.any(w < shift))


def test_matches_jacobi_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        half = np.arange(-n, n + 1)
        lam1 = float(rng.uniform(0.0, 30.0))
        lam2 = float(rng.uniform(-10.0, 10.0))
        diag = half.astype(float) ** 2 - lam2
        off = -lam1 / 2.0
        w, v = jacobi_eigh(tridiag_dense(diag, off))
        pair = min_eigenpair(diag, off)
        assert pair.value == pytest.approx(w[0], abs=1e-9)
        overlap = abs(float(pair.vector @ v[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_residual_contract_large():
    k = np.arange(-100, 101, dtype=float)
    for lam1 in (0.1, 1.0, 10.0, 100.0):
        pair = min_eigenpair(k * k, -lam1 / 2.0)
        assert pair.residual <= 1e-10 * (1.0 + abs(pair.value))
        assert abs(float(pair.vector @ pair.vector) - 1.0) < 1e-12


def test_ground_state_signs():
    diag = np.arange(-6, 7, dtype=float) ** 2
    # negative off-diagonal: entrywise positive ground state
    pos = min_eigenpair(diag, -2.0)
    assert np.all(pos.vector > 0)
    # a positive off-diagonal is outside the contract
    with pytest.raises(ValueError):
        min_eigenpair(diag, 2.0)


def test_pencil_eigenvector_symmetry():
    diag = np.arange(-20, 21, dtype=float) ** 2
    pair = min_eigenpair(diag, -5.0)
    assert np.allclose(pair.vector, pair.vector[::-1], atol=1e-10)


def test_min_eigenvalue_concave_in_lam1():
    # lambda_min(A - t B) is a minimum of linear functions of t, hence concave
    rng = np.random.default_rng(5)
    diag = np.arange(-10, 11, dtype=float) ** 2

    def f(t):
        return min_eigenpair(diag, -t / 2.0).value

    for _ in range(20):
        a, b, c = np.sort(rng.uniform(0.0, 20.0, size=3))
        if c - a < 1e-6:
            continue
        chord = f(a) + (f(c) - f(a)) * (b - a) / (c - a)
        assert f(b) >= chord - 1e-10


def test_tolerance_controls_bracket():
    # the bracket is 1e-12 wide, so the midpoint is within 1e-11
    exact = -math.cos(math.pi / 8)
    lo, hi = _bracket_min([0.0] * 7, -0.5)
    assert hi - lo <= 1e-12
    assert abs(0.5 * (lo + hi) - exact) < 1e-11
