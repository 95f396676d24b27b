"""The start of the kernel's Laguerre climb.

``eigen._start`` estimates a0(q)/4 at q = 4|b|, the minimum of the
infinite even operator, from a [14/14] Pade approximant up to
q = (16/11)^2 and from the Chebyshev table ``eigen._A0_SERIES`` above
(checked in ``test_a0_table.py``), and subtracts a margin.  Interlacing
puts every grid's minimum at or above a0/4, so the start lies below it,
and the climb lands from there in one Laguerre pass, where the Gershgorin
bound took about 4.  A start that is a yes falls back to Gershgorin.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from helpers import a0_reference, a0_small_q_series, even_ground_pair, has_eigenvalue_below, pade

from compactseq import eigen, mathieu
from compactseq.eigen import _EPS, min_eigenpair

# 400 q of both signs, |q| in [1e-2, 1e4]
_QS = np.geomspace(1e-2, 1e4, 200)
_QS = np.concatenate((_QS, -_QS)).tolist()


def test_the_pade_floats_are_exact():
    # the [14/14] Pade approximant of a0/q^2 in q^2 from 29 exact terms of
    # a0's small-q series rounds to the checked-in pairs, bit for bit; every
    # numerator coefficient is negative and every denominator one positive,
    # so neither Horner sum cancels and Q >= 1 on q^2 >= 0
    num, den = pade(a0_small_q_series(29), 14, 14)
    assert num[0] == Fraction(-1, 2) and den[0] == 1
    assert all(c < 0 for c in num) and all(c > 0 for c in den)
    exact = [(float(p).hex(), float(r).hex()) for p, r in zip(num[::-1], den[::-1])]
    assert exact == [(p.hex(), r.hex()) for p, r in eigen._A0_PADE]


def test_the_start_reads_the_table_value_as_a0_does():
    # _start runs _a0's Horner recurrences without the derivatives: the
    # same a0 bits less the same margin, on 100,000 log-spaced |b| from the
    # smallest subnormal to 1e21, at each piece edge of the series, on both
    # sides of the switch from the Pade and where |b| is exactly a0's q / 4
    def reference(b):
        q = 4.0 * abs(b)
        est = 0.25 * eigen._a0(q)[0]
        return est - max(32.0 * _EPS * (abs(est) + 0.5 * q), 5e-324)

    qs = [z**-2 for z in eigen._A0_BREAKS[1:]] + [eigen._Q_PADE]
    qs += [math.nextafter(q, d) for q in qs for d in (0.0, math.inf)]
    bs = np.geomspace(5e-324, 1e21, 100_000).tolist() + [0.25 * q for q in qs]
    for b in bs + [-b for b in bs]:
        assert eigen._start(b).hex() == reference(b).hex(), b


def test_the_start_lies_below_a0_and_close_to_it():
    # against the 40-digit a0: the start is at or below a0/4, the minimum of
    # the infinite even operator, and within 2e-5 (|a0/4| + 2|b|) of it
    # (1.7e-5 near q = 8, where both estimates are least accurate)
    for q in np.geomspace(1e-2, 1e4, 60).tolist() + [7.999, 8.0, 8.001]:
        b = -0.25 * q
        lam = a0_reference(q) / 4
        gap = float(lam - Decimal(eigen._start(b)))
        assert 0.0 <= gap <= 2e-5 * (abs(float(lam)) + 2.0 * abs(b)), q


def test_the_start_lies_below_the_certified_shift():
    for q in _QS:
        pair = mathieu._ground_taps(q)
        assert eigen._start(-0.25 * abs(q)) <= pair.s, q


def test_one_pass_lands_and_one_solve_certifies(monkeypatch):
    # the first step from the start lands, and the shift a quarter rounding
    # level below it goes through: 1.00 Laguerre pass and 1.00 certifying
    # solve per solve on these grids (2.02 and 1.157 when every climb took
    # a confirming pass and the shift was tried at the landing first)
    counts = {"solves": 0, "passes": 0, "certify": 0}

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(eigen, "_climb", counting("solves", eigen._climb))
    monkeypatch.setattr(eigen, "_laguerre_step", counting("passes", eigen._laguerre_step))
    monkeypatch.setattr(eigen, "_solve", counting("certify", eigen._solve))
    for q in _QS:
        mathieu._ground_taps(q)
    assert counts["solves"] == len(_QS)
    assert counts["passes"] <= 1.05 * counts["solves"]
    assert counts["certify"] <= 1.01 * counts["solves"]


def test_a_start_above_the_minimum_falls_back_to_gershgorin(monkeypatch):
    # a start at d_0 = 0, above every minimum, and one just above the
    # minimum are yeses: the climb restarts from the Gershgorin bound and
    # returns a certified pair that matches the dense Jacobi oracle
    for half_len in (2, 10):
        diag = np.arange(-half_len, half_len + 1, dtype=float) ** 2
        half = diag[half_len:].tolist()
        for lam1 in (1e-2, 1.0, 1e2, 1e6):
            off = -0.5 * lam1
            norm_t = half_len * half_len + lam1
            lam, vec = even_ground_pair(diag, off)
            for start in (0.0, lam + 1e-6 * norm_t):
                monkeypatch.setattr(eigen, "_start", lambda b, start=start: start)
                pair = min_eigenpair(diag, off)
                assert not has_eigenvalue_below(half, off * off, pair.s)
                assert abs(pair.value - lam) <= 1e-13 * norm_t
                assert np.max(np.abs(pair.vector - vec)) <= 1e-10
                w = 4.0 * _EPS * (abs(lam) + 2.0 * abs(off))
                assert lam - pair.s <= w, (half_len, lam1, start)


def test_the_start_holds_at_every_coupling():
    # below |b| = 2^-976 the margin 64 eps |b| is subnormal but positive and
    # the start -margin a certified no, below the pair's shift; below 2^-1029,
    # where the margin would round to 0, it is held at 2^-1074, so the start
    # stays a no and the climb from it gives the first tap |b|, to rounding
    # or to one subnormal spacing
    for b in (2.0**-1074, 2.0**-1040, 2.0**-1028, 2.0**-1000, 1e-300, 2.0**-976, 2.0**-970):
        start = eigen._start(-b)
        assert math.isfinite(start) and start < 0.0, b
        for half_len in (1, 5, 40):
            pair = min_eigenpair(eigen._k2_grid(half_len), -b)
            assert pair.value == 0.0 and pair.vector[half_len] == 1.0, (b, half_len)
            assert start <= pair.s, (b, half_len)
            tap = pair.vector[half_len + 1]
            assert abs(tap - b) <= max(1e-13 * b, 2.0**-1074), (b, half_len)
