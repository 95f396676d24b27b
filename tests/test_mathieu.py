import math
import warnings

import numpy as np
import pytest

from helpers import tridiag_dense

from compactseq import eigen, mathieu
from compactseq.cli import main
from compactseq.eigen import EigenConvergenceError, min_eigenpair
from compactseq.mathieu import MathieuGridError, ce0, char_value_a0


def test_char_value_classical_points():
    # classical table values for the lowest characteristic value
    assert char_value_a0(0.0) == pytest.approx(0.0, abs=1e-11)
    assert char_value_a0(1.0) == pytest.approx(-0.455138604, abs=1e-8)
    assert char_value_a0(5.0) == pytest.approx(-5.800046020, abs=1e-8)
    assert char_value_a0(10.0) == pytest.approx(-13.936979956658926, abs=1e-7)
    assert char_value_a0(25.0) == pytest.approx(-40.256779546566787, abs=1e-7)


def test_a0_has_one_source():
    # the table and the ce0 header take a0 from the same ground solve
    for q in (1e-3, 0.3, 7.25, 1e4):
        for s in (q, -q):
            assert char_value_a0(s) == ce0(s, [0.0]).a0


def test_ce0_arrays_are_read_only():
    # the coefficients are the kernel's vector itself, also where b = 0
    for q in (0.0, 1e-5, -3.0):
        ev = ce0(q, [0.0, 1.0])
        assert not ev.fourier_coeffs.flags.writeable
        assert not ev.values.flags.writeable


def test_char_value_even_in_q():
    for q in (0.4, 2.0, 25.0):
        assert char_value_a0(-q) == char_value_a0(q)


def test_a0_is_the_bottom_of_the_spectrum():
    # the pencil eigenvalue right above the ground one maps to the next
    # even characteristic value; it must sit strictly higher
    for q in (0.5, 5.0, 40.0):
        lam1 = q / 2.0
        n = 40
        k = np.arange(-n, n + 1, dtype=float)
        ground = min_eigenpair(k * k, -lam1 / 2.0).value
        second = np.linalg.eigvalsh(tridiag_dense(k * k, -lam1 / 2.0))[1]
        assert 4 * ground == pytest.approx(char_value_a0(q), abs=1e-9)
        assert second > ground + 1e-6


def test_ce0_constant_at_zero_q():
    ev = ce0(0.0, np.array([0.0, 0.3, 2.0]))
    assert np.allclose(ev.values, 1 / math.sqrt(2), atol=1e-12)
    assert ev.a0 == pytest.approx(0.0, abs=1e-11)


def test_ce0_normalization():
    for q in (-3.0, 0.7, 12.0):
        t = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        y = ce0(q, t).values
        integral = float(np.sum(y * y)) * (2 * np.pi / t.size)
        assert integral == pytest.approx(math.pi, rel=1e-12)


def test_ce0_reduces_the_angle_by_its_period(capsys):
    # 2kt at t = 1e308 overflowed and printed nan with exit 0; the angle is
    # now reduced by pi first, so t = 10 and t - 3pi agree to the reduction's
    # phase error, about |t| * 4e-17
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (-3.0, 3.0, 7.25):
            y = ce0(q, [1e308, -1e308, 10.0, 10.0 - 3.0 * math.pi]).values
            assert np.all(np.isfinite(y)), q
            assert abs(y[2] - y[3]) <= 1e-13, q
        assert main(["mathieu", "--q", "3", "--grid", "0:1e308:2:lin"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out and out.splitlines()[-1].startswith("1e+308,")


def test_ce0_folds_its_factors_of_two_exactly():
    # the 2 of 2kt folded into the index vector and the 2 of 2 cos(2kt) into
    # the taps give the bits of the unfolded form, also where t k rounds to a
    # subnormal (t = 1e-310, and the CI grid's 5e-301) and where the angle
    # is reduced from far out (t = 1e6, pi 2^40)
    thetas = np.concatenate(([5e-324, 1e-310, 1e6, math.pi * 2.0**40],
                             np.linspace(0.0, 1e-300, 3), np.linspace(0.0, math.pi, 257)))
    for q in (7.25, -7.25, 1e4, -1e4):
        pair = mathieu._ground_taps(q)
        n = pair.vector.size // 2
        half = pair.vector[n:].copy()
        if q > 0.0:
            half[1::2] = -half[1::2]
        phase = 2.0 * np.outer(np.remainder(thetas, math.pi), np.arange(1, n + 1))
        want = (half[0] + 2.0 * np.cos(phase) @ half[1:]) / math.sqrt(2.0)
        got = ce0(q, thetas).values
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], q


def test_ce0_reflection_identity():
    t = np.linspace(0.0, np.pi, 301)
    for q in (0.4, 3.0, 18.0):
        a = ce0(q, t).values
        b = ce0(-q, np.pi / 2 - t).values
        assert np.allclose(a, b, atol=1e-13)


def test_ce0_is_nodeless_and_coeffs_positive():
    t = np.linspace(0.0, 2 * np.pi, 2048)
    for q in (-10.0, 0.4, 10.0):
        ev = ce0(q, t)
        assert np.all(ev.values > 0)
        assert np.all(ev.fourier_coeffs > 0)
        assert np.allclose(ev.fourier_coeffs, ev.fourier_coeffs[::-1], atol=0)
        assert float(ev.fourier_coeffs @ ev.fourier_coeffs) == pytest.approx(1.0)


def test_ce0_satisfies_ode():
    # central-difference residual of y'' + (a0 - 2 q cos 2t) y = 0
    m = 1 << 15
    t = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    h = t[1] - t[0]
    for q in (0.4, -6.0, 30.0):
        ev = ce0(q, t)
        y = ev.values
        ypp = (np.roll(y, -1) - 2 * y + np.roll(y, 1)) / (h * h)
        resid = ypp + (ev.a0 - 2 * q * np.cos(2 * t)) * y
        assert float(np.max(np.abs(resid))) < 1e-5


def test_explicit_half_len():
    # the auto-grown grid must agree with a generous fixed 121-row grid
    k = np.arange(-60, 61, dtype=float)
    lam = np.linalg.eigvalsh(tridiag_dense(k * k, -0.5))[0]
    assert char_value_a0(2.0) == pytest.approx(4.0 * lam, abs=1e-11)


# the first grid's half-length at lam1 = k^2 and its two one-ulp
# neighbours, for the k where Parlett's tail bound ends the grid before
# the large-|q| half-length n0 (k <= 14) and a few where n0 binds
_HALF_LEN_AT_K2 = {
    0: 1, 1: 9, 2: 12, 3: 14, 4: 16, 5: 18, 6: 20, 7: 22, 8: 24, 9: 25,
    10: 27, 11: 29, 12: 30, 13: 32, 14: 33, 15: 35, 16: 35, 20: 39, 59: 60,
}
# and on a log grid of lam1, where the bound cuts a row or n0 binds
_HALF_LEN_AT = {
    0.0: 1, 5e-324: 1, 1e-300: 1, 1e4: 76, 1e6: 221, 1e8: 681, 1e12: 6736, 1e22: 2127327,
}


def test_first_half_len_is_pinned():
    # every Mathieu grid is sized by these rows; a change to the sizing
    # moves the grid, the solve and every printed coefficient
    for k, n in _HALF_LEN_AT_K2.items():
        lam1 = float(k * k)
        for x in (math.nextafter(lam1, -math.inf), lam1, math.nextafter(lam1, math.inf)):
            if x >= 0.0:
                assert mathieu._first_half_len(x) == n, (k, x)
    for lam1, n in _HALF_LEN_AT.items():
        assert mathieu._first_half_len(lam1) == n, lam1


def test_scaled_ce0_is_unit_energy_spectrum():
    # sqrt(2) * ce0 has mean square one over a period, matching a
    # unit-energy spectrum read through w = 2 theta
    t = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
    y = math.sqrt(2.0) * ce0(-4.0, t).values
    assert float(np.mean(y * y)) == pytest.approx(1.0, rel=1e-12)


def test_non_finite_q_rejected():
    for q in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            char_value_a0(q)
        with pytest.raises(ValueError, match="finite"):
            ce0(q, [0.0])


def test_ce0_takes_a_scalar_or_1d_angles():
    # every value lines up with its angle: a scalar is one sample, and an
    # array of more dimensions, which the outer product would flatten, is
    # refused
    one = ce0(1.0, 0.3)
    assert one.thetas.shape == one.values.shape == (1,)
    assert one.values[0] == pytest.approx(ce0(1.0, [0.1, 0.3]).values[1], rel=1e-15)
    for thetas in ([[0.1, 0.2], [0.3, 0.4]], np.zeros((1, 3)), np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match="thetas must be a scalar or 1-d"):
            ce0(1.0, thetas)


def test_unresolved_tails_raise(monkeypatch, capsys):
    # no q reaches this: the grid is solved once, and tails that still
    # reach 1e-12 on it are refused
    monkeypatch.setattr(mathieu, "_first_half_len", lambda lam1: 2)
    with pytest.raises(MathieuGridError, match="not resolved"):
        char_value_a0(100.0)
    assert main(["mathieu", "--q", "100"]) == 2
    assert "compactseq: solver failure:" in capsys.readouterr().err


def test_an_a0_table_solves_nothing(monkeypatch, capsys):
    # every printed a0 is the table's, certified by two pivot passes; the
    # ce0 samples still take one ground solve
    calls = []

    def counting(*args):
        calls.append(args)
        return min_eigenpair(*args)

    monkeypatch.setattr(mathieu, "min_eigenpair", counting)
    for argv in (["mathieu"], ["mathieu", "--grid", "1e-300:1e6:7:log"],
                 ["mathieu", "--grid", "-1e4:-1e-2:9:lin"]):
        assert main(argv) == 0
    assert calls == []
    assert main(["mathieu", "--q", "-2.5"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_the_sign_of_a_zero_a0(capsys):
    # q = 0 prints 0.0; where a0 ~ -q^2/2 underflows, the table's -0.0,
    # also at q = 2^-1074, whose coupling -q/4 rounds to -0.0
    assert main(["mathieu", "--grid", "0:1e-300:2:lin"]) == 0
    assert capsys.readouterr().out == "q,a0\n0.0,0.0\n1e-300,-0.0\n"
    for q, a0 in (("0", "0.0"), ("1e-300", "-0.0"), ("-1e-300", "-0.0"), ("5e-324", "-0.0")):
        assert main(["mathieu", "--q", q, "--grid", "0:1:2:lin"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"# q={float(q)!r} a0={a0}"


def test_a_table_value_off_the_minimum_is_refused(monkeypatch):
    # the passes test the table's value rather than trust it: moved 32 m
    # above a0/4 it fails the no at every width, 32 m below it the yes
    b, n = mathieu._grid(7.25)
    est, m = eigen._ground_value(b, n)
    for moved, error in ((32.0 * m, EigenConvergenceError), (-32.0 * m, MathieuGridError)):
        monkeypatch.setattr(eigen, "_estimate", lambda b, off=est + moved: off)
        with pytest.raises(error):
            char_value_a0(7.25)
    # 8 m off, it is still certified, at the widest margin, whose
    # enclosure holds the true value
    monkeypatch.setattr(eigen, "_estimate", lambda b: est + 8.0 * m)
    off, wide = eigen._ground_value(b, n)
    assert off - wide <= est <= off + wide and wide > 8.0 * m
