import math

import numpy as np
import pytest

from helpers import even_spectrum, has_eigenvalue_below, jacobi_eigh, tridiag_dense

from compactseq import design, eigen
from compactseq.eigen import (
    _EPS,
    EigenConvergenceError,
    EigenPair,
    _climb,
    _pivots,
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
    # tridiag({1, 0, 1}, -1/2): the even vectors (a, c, a) give
    # lambda^2 - lambda - 1/2 = 0, so (1 - sqrt(3))/2
    assert min_eigenpair([1.0, 0.0, 1.0], -0.5).value == pytest.approx(
        (1 - math.sqrt(3)) / 2, abs=1e-11
    )


def test_diagonal_degenerate():
    pair = min_eigenpair([4.0, 1.0, 4.0], 0.0)
    assert pair.value == 1.0
    assert list(pair.vector) == [0.0, 1.0, 0.0]
    assert pair.residual == 0.0
    assert min_eigenpair([3.0], 0.0).value == 3.0
    # an off-centre minimum comes back as its even, mirrored vector
    pair = min_eigenpair([1.0, 4.0, 1.0], 0.0)
    assert pair.value == 1.0
    v = pair.vector
    assert v[0] == v[2] == pytest.approx(math.sqrt(0.5), rel=1e-15) and v[1] == 0.0


def test_even_length_or_non_palindromic_diag_is_refused():
    for diag in ([0.0, 1.0], [4.0, 1.0, 9.0], [], [1.0, 0.0, 0.0, 1.0]):
        with pytest.raises(ValueError, match="reverse"):
            min_eigenpair(diag, -0.5)


def test_eigenvalue_count():
    d = [0.0] * 5
    b = 0.5
    # spectrum is cos(j*pi/6), j = 1..5, with even vectors for odd j; the
    # test runs on the even half; probe strictly between eigenvalues; the
    # kernel's pivot pass refuses exactly the shifts the Sturm test says yes to
    w = even_spectrum(d, b)
    assert np.allclose(w, np.cos(np.pi * np.array([5, 3, 1]) / 6.0), atol=1e-12)
    for shift in (-2.0, -0.6, -0.2, 0.31, 0.75, 2.0):
        below = bool(np.any(w < shift))
        assert has_eigenvalue_below(d[2:], b * b, shift) == below
        assert (_pivots(d[2:], b * b, shift) is None) == below


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


@pytest.mark.parametrize("c", [1e-12, 1e-20, 1e-100, 1e-300])
def test_tiny_scale_matches_jacobi(c):
    # eigenpairs scale with the matrix, so c*T has value c*lambda and the
    # same vector; the absolute tolerances must not swamp a tiny ||T||
    diag, off = [5.0, 1.0, 0.0, 1.0, 5.0], -1.0
    w, v = jacobi_eigh(tridiag_dense(diag, off))
    pair = min_eigenpair([c * x for x in diag], c * off)
    assert abs(pair.value / c - w[0]) <= 1e-13 * abs(w[0])
    assert np.max(np.abs(pair.vector - np.abs(v[:, 0]))) <= 1e-10
    assert pair.residual <= 1e-10 * c


@pytest.mark.parametrize("c", [1e155, 1e200, 1e300])
def test_huge_scale_matches_jacobi(c):
    # from |b| ~ 1e154 on, b^2 overflows unless the matrix is scaled down
    diag, off = [5.0, 1.0, 0.0, 1.0, 5.0], -1.0
    w, v = jacobi_eigh(tridiag_dense(diag, off))
    pair = min_eigenpair([c * x for x in diag], c * off)
    assert abs(pair.value / c - w[0]) <= 1e-13 * abs(w[0])
    assert np.max(np.abs(pair.vector - np.abs(v[:, 0]))) <= 1e-10
    assert pair.residual <= 1e-10 * c
    # a diagonal matrix is answered unscaled: no entry is flushed
    assert min_eigenpair([c, 1e-300, c], 0.0).value == 1e-300


def test_residual_contract_large():
    k = np.arange(-100, 101, dtype=float)
    for lam1 in (0.1, 1.0, 10.0, 100.0):
        pair = min_eigenpair(k * k, -lam1 / 2.0)
        assert pair.residual <= 1e-10 * (1.0 + abs(pair.value))
        assert abs(float(pair.vector @ pair.vector) - 1.0) < 1e-12


def test_a_missed_residual_raises(monkeypatch):
    # no input reaches this: the one inverse-iteration solve has met the
    # contract with room on every grid tried, but its check stays
    monkeypatch.setattr(eigen, "_residual_bound", lambda value, scale: -1.0)
    k = np.arange(-20, 21, dtype=float)
    with pytest.raises(EigenConvergenceError, match="residual"):
        min_eigenpair(k * k, -2.0)


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
    # the climb's shift and the minimum bracket the ground value to a few
    # rounding levels 4 eps (|s| + 2|b|); the half of tridiag({0} * 7, -1/2),
    # whose minimum is -cos(pi/8)
    exact = -math.cos(math.pi / 8)
    shift, piv = _climb([0.0] * 4, -0.5, 0.0, 0.0)
    assert min(piv) > 0.0
    assert 0.0 < exact - shift <= 4.0 * 4.0 * _EPS * (abs(shift) + 1.0)


def test_climb_work_is_bounded(monkeypatch):
    # the ground solves of a sigma2 sweep at 201 taps: about 4 Laguerre
    # passes, each on the rows the ground state holds above eps^2 (about
    # half of the 101 half rows), and 1 pivot pass on all 101
    counts = dict.fromkeys(("solves", "passes", "rows", "pivots"), 0)

    def counting(key, fn):
        def wrapped(d, *args):
            counts[key] += 1
            if key == "passes":
                counts["rows"] += len(d)
            return fn(d, *args)
        return wrapped

    monkeypatch.setattr(eigen, "_climb", counting("solves", eigen._climb))
    monkeypatch.setattr(eigen, "_laguerre_step", counting("passes", eigen._laguerre_step))
    monkeypatch.setattr(eigen, "_pivots", counting("pivots", eigen._pivots))
    for sigma2 in np.geomspace(3e-4, 10.0, 69):
        design.design_max_compact(float(sigma2), 201)
    assert counts["solves"] >= 69
    assert counts["passes"] <= 6 * counts["solves"]
    assert counts["rows"] <= 0.6 * 101 * counts["passes"]
    assert counts["pivots"] <= 2 * counts["solves"]
