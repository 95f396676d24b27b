import functools
import math

import numpy as np
import pytest

from helpers import (
    even_ground_pair,
    even_spectrum,
    has_eigenvalue_below,
    jacobi_eigh,
    log_amplitudes,
    tridiag_dense,
)

from compactseq import design, eigen
from compactseq.eigen import (
    _EPS,
    EigenConvergenceError,
    EigenPair,
    _climb,
    _residual_bound,
    _solve,
    min_eigenpair,
)


def _k2(half_len):
    k = np.arange(-half_len, half_len + 1, dtype=float)
    return k * k


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
    # tridiag({1, 0, 1}, b): the even vectors (a, c, a) give
    # lambda^2 - lambda - 2b^2 = 0, so (1 - sqrt(1 + 8b^2))/2
    assert min_eigenpair([1.0, 0.0, 1.0], -0.5).value == pytest.approx(
        (1 - math.sqrt(3)) / 2, abs=1e-11
    )
    assert min_eigenpair([1.0, 0.0, 1.0], -1.0).value == pytest.approx(-1.0, abs=1e-11)
    # the one-row grid k = 0 is its own ground state
    pair = min_eigenpair([0.0], -0.5)
    assert pair.value == 0.0 and list(pair.vector) == [1.0]


def test_diagonal_degenerate():
    pair = min_eigenpair([1.0, 0.0, 1.0], 0.0)
    assert pair.value == 0.0
    assert list(pair.vector) == [0.0, 1.0, 0.0]
    assert pair.residual == 0.0
    assert min_eigenpair([0.0], 0.0).value == 0.0
    pair = min_eigenpair(_k2(20), -0.0)
    assert pair.value == 0.0 and pair.vector[20] == 1.0 and pair.vector.sum() == 1.0


def test_even_length_or_non_palindromic_diag_is_refused():
    # and every other diagonal that is not k^2 on k = -N..N: the kernel
    # solves that one family
    for diag in (
        [0.0, 1.0],
        [4.0, 1.0, 9.0],
        [],
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
        [4.0, 1.0, 4.0],
        [2.0, 0.0, 2.0],
        _k2(5) - 0.5,
        [[1.0, 0.0, 1.0]],
        [1.0, math.nan, 1.0],
    ):
        with pytest.raises(ValueError, match=r"k\^2"):
            min_eigenpair(diag, -0.5)


@pytest.mark.parametrize("c", [1e155, 1e200, 1e300])
def test_huge_scale_is_refused(c):
    # from |b| ~ 1e154 on, b^2 overflows: ||T|| >= 2^256 is refused
    with pytest.raises(ValueError, match=r"2\^256"):
        min_eigenpair(_k2(2), -c)


def test_norm_bound_is_exact():
    # ||T|| = N^2 + 2|b| is solved up to the last double below 2^256 and
    # refused from 2^256 on, as is a non-finite coupling
    b = math.nextafter(-(2.0**255), 0.0)
    assert min_eigenpair(_k2(2), b).value == pytest.approx(math.sqrt(3.0) * b, rel=1e-13)
    for b in (-(2.0**255), -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            min_eigenpair(_k2(2), b)


def test_the_k2_grid_is_shared_and_read_only():
    # the last grid built is kept, read-only, and the kernel accepts it by
    # identity, with the same pair as from a copy it checks entry by entry
    grid = eigen._k2_grid(30)
    assert grid is eigen._k2_grid(30) and not grid.flags.writeable
    assert np.array_equal(grid, _k2(30))
    a, b = min_eigenpair(grid, -2.0), min_eigenpair(grid.copy(), -2.0)
    assert a.value == b.value and np.array_equal(a.vector, b.vector)


def test_eigenvalue_count():
    # tridiag({1, 0, 1}, -1): even half spectrum (1 -+ 3)/2, the odd
    # vector (1, 0, -1) at 1
    assert np.allclose(even_spectrum(_k2(1), -1.0), [-1.0, 2.0], atol=1e-12)
    # on k = -3..3 probe strictly between eigenvalues of the even half;
    # the kernel's solve refuses exactly the shifts the Sturm test says
    # yes to
    b = -1.0
    d = _k2(3)[3:].tolist()
    w = even_spectrum(_k2(3), b)
    mid = (w[1:] + w[:-1]) / 2.0
    for shift in (w[0] - 1.0, w[0] - 1e-6, w[0] + 1e-6, *mid, w[-1] + 1.0):
        below = bool(np.any(w < shift))
        assert has_eigenvalue_below(d, b * b, shift) == below
        assert (_solve(d, b, shift, [1.0] * len(d)) is None) == below


def test_even_spectrum_keeps_nearly_degenerate_pairs():
    # on k = -2..2 at b = -1e-3 the even and odd eigenvalues near 4 differ
    # by the order of b^4; the oracle still returns all three of the even
    # half's, which with the odd half's two, tridiag(1, 4; b), make up the
    # full spectrum
    d = _k2(2)
    for b in (-1e-3, -1.0):
        w = even_spectrum(d, b)
        assert w.size == 3
        odd = np.linalg.eigvalsh(tridiag_dense(d[3:], b))
        full = np.linalg.eigvalsh(tridiag_dense(d, b))
        assert np.allclose(np.sort(np.concatenate((w, odd))), full, rtol=0, atol=1e-12)
    assert even_spectrum(d, -1e-3)[2] == pytest.approx(4.00000033, abs=1e-8)


@pytest.mark.parametrize("half_len", (1, 2, 5, 50))
def test_solve_certifies_and_solves_as_the_oracles_do(half_len):
    # the one pass that certifies a shift also solves at it: just below and
    # just above each eigenvalue of the even half (dense, on its symmetric
    # form with couplings sqrt(2) b, b, ...) it refuses exactly where the
    # Sturm oracle and the dense spectrum find an eigenvalue below the
    # shift, and below the minimum it matches a dense solve of the half
    # itself, 2b above row 0.  The shift sits 1e-3 ||T|| below the minimum,
    # where the dense solve's own error, eps ||T|| / (lam - s), is 1e-13
    d = [float(i * i) for i in range(half_len + 1)]
    rhs = np.linspace(1.0, 2.0, half_len + 1)
    for b in (-1e-3, -0.5, -28.9, -1e4):
        off = np.full(half_len, b)
        off[0] *= math.sqrt(2.0)
        w = np.linalg.eigvalsh(np.diag(d) + np.diag(off, 1) + np.diag(off, -1))
        norm = half_len**2 + 2.0 * abs(b)
        for lam in w:
            for shift in (lam - 1e-9 * norm, lam + 1e-9 * norm):
                below = bool(np.any(w < shift))
                assert has_eigenvalue_below(d, b * b, shift) == below, (b, shift)
                assert (_solve(d, b, shift, [1.0] * len(d)) is None) == below, (b, shift)
        shift = w[0] - 1e-3 * norm
        h = tridiag_dense(np.array(d) - shift, b)
        h[0, 1] = 2.0 * b
        ref = np.linalg.solve(h, rhs)
        y = np.array(_solve(d, b, shift, rhs.tolist()))
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref)), b


def test_matches_jacobi_random():
    # the design pencil A - lambda1*B - lambda2*I: lambda2 moves the
    # spectrum, so its minimum is min_eigenpair(k^2, b).value - lambda2
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        lam1 = float(rng.uniform(0.0, 30.0))
        lam2 = float(rng.uniform(-10.0, 10.0))
        off = -lam1 / 2.0
        w, v = jacobi_eigh(tridiag_dense(_k2(n) - lam2, off))
        pair = min_eigenpair(_k2(n), off)
        assert pair.value - lam2 == pytest.approx(w[0], abs=1e-9)
        overlap = abs(float(pair.vector @ v[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("c", [1e-12, 1e-20, 1e-100, 1e-131, 1e-150, 1e-200, 1e-300])
def test_tiny_scale_matches_jacobi(c):
    # a tiny coupling b = -c on k = -2..2: the value is -2c^2 to second
    # order in c, far below the Jacobi oracle's resolution of ||T|| ~ 4
    diag = _k2(2)
    norm_t = 4.0 + 2.0 * c
    w, v = jacobi_eigh(tridiag_dense(diag, -c))
    pair = min_eigenpair(diag, -c)
    assert abs(pair.value - w[0]) <= 1e-13 * norm_t
    assert np.max(np.abs(pair.vector - np.abs(v[:, 0]))) <= 1e-10
    # row 1 gives v_1 = c v_0 to first order in c; the absolute vector
    # check above cannot tell that tap from noise a rounding level above 0
    v0, v1 = pair.vector[2], pair.vector[3]
    assert abs(v1 / (c * v0) - 1.0) <= 1e-14
    assert pair.residual <= 1e-3 * _residual_bound(pair.value, norm_t)
    if c * c > 0.0:  # where b^2 underflows the value is held in ||T|| only
        assert abs(pair.value + 2.0 * c * c) <= 1e-13 * 2.0 * c * c


@pytest.mark.parametrize("c", [1e20, 1e50, 1e76])
def test_huge_scale_matches_jacobi(c):
    # b = -c on k = -2..2, up to ||T|| just below the refused 2^256: the
    # value is -sqrt(3) c and the vector (1, sqrt(3), 2, sqrt(3), 1)/sqrt(12)
    # to order 1/c
    diag = _k2(2)
    w, v = jacobi_eigh(tridiag_dense(diag, -c))
    pair = min_eigenpair(diag, -c)
    assert abs(pair.value / c - w[0] / c) <= 1e-13 * abs(w[0] / c)
    assert np.max(np.abs(pair.vector - np.abs(v[:, 0]))) <= 1e-10
    assert pair.residual <= 1e-10 * c


@pytest.mark.parametrize("half_len", [1, 2, 5, 30])
def test_fixed_sweep_matches_jacobi(half_len):
    # a fixed sample of the k^2 family from the smallest to the largest
    # coupling a design or Mathieu grid meets, with no optional dependency,
    # against the dense Jacobi solve of the even half
    diag = _k2(half_len)
    for lam1 in (1e-8, 1e-2, 1.0, 1e2, 1e6, 1e12):
        off = -0.5 * lam1
        norm_t = half_len * half_len + lam1
        lam, vec = even_ground_pair(diag, off)
        pair = min_eigenpair(diag, off)
        assert abs(pair.value - lam) <= 1e-13 * norm_t
        assert np.max(np.abs(pair.vector - vec)) <= 1e-10
        assert pair.residual <= 1e-3 * _residual_bound(pair.value, norm_t)
        assert np.array_equal(pair.vector, pair.vector[::-1]) and np.all(pair.vector >= 0.0)


# the fixed k^2 sample of the window and shift tests; the dense oracle is
# the Python Jacobi solver on the short grids and LAPACK's past them, where
# Jacobi's rotations take seconds
_SAMPLE_HALVES = (2, 10, 100, 1000)
_SAMPLE_LAM1 = (1e-6, 1e-2, 1.0, 1e2, 1e6)


@functools.cache
def _dense_value(half_len, lam1):
    eigh = jacobi_eigh if half_len <= 10 else np.linalg.eigh
    return even_ground_pair(_k2(half_len), -0.5 * lam1, eigh)[0]


# the rows of the half the climb's Laguerre steps see, at each lam1 of
# _SAMPLE_LAM1 for each half-length of _SAMPLE_HALVES: Parlett's ratio
# bound keeps the rows past which the ground state is below eps^2
_CLIMB_ROWS = {
    2: (3, 3, 3, 3, 3),
    10: (5, 9, 11, 11, 11),
    100: (5, 9, 17, 41, 101),
    1000: (5, 9, 17, 41, 1001),
}


def _climb_rows(monkeypatch, half_len, offdiag):
    rows = set()

    def recorded(d, *args):
        rows.add(len(d))
        return step(d, *args)

    step = eigen._laguerre_step
    with monkeypatch.context() as mp:
        mp.setattr(eigen, "_laguerre_step", recorded)
        min_eigenpair(_k2(half_len), offdiag)
    # every step sees the one window that _support keeps at eps^2
    assert rows == {eigen._support(abs(offdiag), half_len + 1, _EPS * _EPS)}, rows
    return rows.pop()


def test_climb_rows_are_pinned(monkeypatch):
    for half_len, rows in _CLIMB_ROWS.items():
        for lam1, w in zip(_SAMPLE_LAM1, rows):
            assert _climb_rows(monkeypatch, half_len, -0.5 * lam1) == w, (half_len, lam1)
    # the sigma2 = 0.1 design at 2001 taps (README), and 2|b| = 4^2
    assert _climb_rows(monkeypatch, 1000, -28.9) == 36
    assert _climb_rows(monkeypatch, 1000, -8.0) == 27


def _assert_window_holds(half_len, offdiag, lam):
    # past the climb's window W the true ground state is below eps^2 of its
    # largest entry, by a ratio recurrence that does not use the kernel
    diag = _k2(half_len)
    w = eigen._support(abs(offdiag), half_len + 1, _EPS * _EPS)
    logv = log_amplitudes(diag[half_len:].tolist(), offdiag, lam)
    assert np.all(logv[w:] < 2.0 * math.log(_EPS)), (half_len, offdiag, w)


def test_window_holds_the_ground_state_on_the_sample():
    for half_len in _SAMPLE_HALVES:
        for lam1 in _SAMPLE_LAM1:
            _assert_window_holds(half_len, -0.5 * lam1, _dense_value(half_len, lam1))
    # the sigma2 = 0.1 design at 2001 taps, and 2|b| = 4^2, so j0 = 5
    for off in (-28.9, -8.0):
        _assert_window_holds(1000, off, even_ground_pair(_k2(1000), off, eigh=np.linalg.eigh)[0])


@pytest.mark.parametrize("half_len", _SAMPLE_HALVES)
def test_certified_shift_bounds_the_minimum(half_len):
    # the pair's shift s lies below every eigenvalue, by the exact Sturm
    # count of the oracle, and within the climb's rounding level
    # w = 4 eps (|lam| + 2|b|) of the dense minimum, which carries up to
    # about w of rounding itself
    diag = _k2(half_len)
    half = diag[half_len:].tolist()
    for lam1 in _SAMPLE_LAM1:
        off = -0.5 * lam1
        pair = min_eigenpair(diag, off)
        lam = _dense_value(half_len, lam1)
        w = 4.0 * _EPS * (abs(lam) + 2.0 * abs(off))
        assert not has_eigenvalue_below(half, off * off, pair.s)
        assert abs(lam - pair.s) <= w, (lam1, (lam - pair.s) / w)


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


def test_laguerre_step_does_not_overflow_near_a_tiny_minimum():
    # 2e-300 below the minimum 0 of diag(0, 1, 4): the squared sums of
    # 1/(lam_j - s) would overflow, and the step then passed the minimum
    # (it returned 6e-300); scaled by the first pivot it lands on it
    assert eigen._laguerre_step([0.0, 1.0, 4.0], 0.0, -2e-300) <= 2e-300
    # and where 1/(lam_1 - s) itself would overflow, it still steps
    assert eigen._laguerre_step([0.0, 1.0, 4.0], 0.0, -1e-320) == 1e-320


def test_climb_shift_is_a_few_rounding_levels_below_the_minimum():
    # the climb's shift and the minimum bracket the ground value to a few
    # rounding levels 4 eps (|s| + 2|b|); the half of tridiag({1, 0, 1}, -1),
    # whose minimum is exactly -1
    shift, y = _climb([0.0, 1.0], -1.0)
    assert min(y) > 0.0  # the inverse iterate at the certified shift
    assert 0.0 < -1.0 - shift <= 4.0 * 4.0 * _EPS * (abs(shift) + 2.0)


def test_climb_work_is_bounded(monkeypatch):
    # the ground solves of a sigma2 sweep at 201 taps: about 2 Laguerre
    # passes from the rational start (2.15; 4.0 from the Gershgorin
    # bound), each on exactly the rows that _support keeps at eps^2 for
    # the solve's coupling (about half of the 101 half rows; their average
    # over the sweep moves with the mix of small and large lambda1), and 1
    # solve on all 101 that certifies the shift
    counts = dict.fromkeys(("solves", "passes", "pivots", "all"), 0)
    window = []

    def counting(key, fn):
        def wrapped(d, *args):
            counts[key] += 1
            if key == "passes":
                assert len(d) == window[-1]
            return fn(d, *args)
        return wrapped

    def climbing(d, b):
        counts["solves"] += 1
        window.append(eigen._support(abs(b), 101, np.finfo(float).eps ** 2))
        before = counts["all"]
        out = climb(d, b)
        counts["pivots"] += counts["all"] - before
        return out

    climb = eigen._climb
    monkeypatch.setattr(eigen, "_climb", climbing)
    monkeypatch.setattr(eigen, "_laguerre_step", counting("passes", eigen._laguerre_step))
    monkeypatch.setattr(eigen, "_solve", counting("all", eigen._solve))
    for sigma2 in np.geomspace(3e-4, 10.0, 69):
        design.design_max_compact(float(sigma2), 201)
    assert counts["solves"] >= 69
    assert counts["passes"] <= 2.5 * counts["solves"]
    assert counts["solves"] <= counts["pivots"] <= 2 * counts["solves"]
