"""The a0 table that starts every Laguerre climb and seeds every design.

Above q = (16/11)^2, ``eigen._A0_SERIES`` holds h = (a0 + 2q) z in
z = q^-1/2 on four pieces of [0, 11/16]: on each, the Chebyshev interpolant
of the 40-digit ``helpers.a0_reference`` at 33 Lobatto nodes, cut where the
rest of its coefficients sum below 2e-16 and written in powers of the
piece's t = 2 (z - lo)/(hi - lo) - 1.  These tests rebuild every
coefficient in decimal arithmetic and compare the doubles bit for bit,
check the stated error bounds of a0, b = -a0'/2 and the climb's start
against the oracle at 200 q up to 1e7 (designs reach q = 2 lambda1 ~ 1.1e7)
and of b'(q) at 90, and check the spectral gap (a2 - a0)/4 >= max(1, sqrt(q))
on which ``eigen._climb``'s one-step landing rests.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from helpers import a0_reference

from compactseq import eigen
from compactseq.eigen import _A0_BREAKS, _A0_SERIES, _EPS, _Q_PADE

_NODES = 32
_QS = np.geomspace(2.0, 1e7, 200).tolist()


def _pi():
    """pi in the current decimal context, by the series of the decimal
    module's documentation."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return +s


def _cos(x):
    """cos(x) in the current decimal context, by its Taylor series."""
    i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign = -sign
        s += num / fact * sign
    return +s


def _chebyshev(lo, hi, n):
    """c_0..c_n of h's interpolant at the n + 1 Lobatto nodes of [lo, hi],
    by the discrete cosine transform, in 60-digit arithmetic; h(0) = 2."""
    with localcontext() as ctx:
        ctx.prec = 60
        pi = _pi()
        cos = [_cos(pi * k / n) for k in range(2 * n)]
        cos[0], cos[n] = Decimal(1), Decimal(-1)
        h = []
        for k in range(n + 1):
            z = lo + (hi - lo) * (1 + cos[k]) / 2
            q = 1 / (z * z) if z else None
            h.append(Decimal(2) if q is None else (a0_reference(q) + 2 * q) * z)
        half = [Decimal(1) if 0 < k < n else Decimal("0.5") for k in range(n + 1)]
        return [sum((w * v * cos[j * k % (2 * n)] for k, (w, v) in enumerate(zip(half, h))),
                    Decimal(0)) * 2 / n * half[j] for j in range(n + 1)]


def _powers(c):
    """sum c_j T_j(t) as the coefficients of t^0, t^1, ..., exactly."""
    ts = [[1], [0, 1]]
    while len(ts) < len(c):
        nxt = [0] + [2 * x for x in ts[-1]]  # T_j+1 = 2t T_j - T_j-1
        for i, x in enumerate(ts[-2]):
            nxt[i] -= x
        ts.append(nxt)
    out = [Fraction(0)] * len(c)
    for cj, tj in zip(c, ts):
        for i, x in enumerate(tj):
            out[i] += Fraction(cj) * x
    return out


def _h(q):
    """h at q from the table, as ``eigen._a0`` evaluates it."""
    z = 1.0 / math.sqrt(q)
    i = int(np.searchsorted(_A0_BREAKS[1:], z))
    lo, hi = _A0_BREAKS[i:i + 2]
    t = 2.0 / (hi - lo) * (z - lo) - 1.0
    h = 0.0
    for c in _A0_SERIES[i]:
        h = h * t + c
    return h


def test_the_series_coefficients_are_exact():
    # every piece's interpolant, cut by the 2e-16 rule, rounds to the
    # checked-in powers of t, bit for bit; the nodes' last coefficient is
    # far below the cut, so more nodes would not move the doubles
    for i, table in enumerate(_A0_SERIES):
        lo, hi = (Decimal(b) for b in _A0_BREAKS[i:i + 2])
        c = _chebyshev(lo, hi, _NODES)
        m = len(table)
        tail = sum(abs(x) for x in c[m:])
        assert tail < Decimal("2e-16") <= tail + abs(c[m - 1]), i
        assert abs(c[-1]) < Decimal("1e-24"), i
        assert [float(x).hex() for x in _powers(c[:m])[::-1]] == [x.hex() for x in table], i


def test_the_table_meets_its_error_bounds():
    # against the 40-digit a0 and its central difference: h within 1e-15,
    # so a0/4 within 0.25e-15 sqrt(q); 1 - b within 1e-13 of itself above
    # q = (16/11)^2, and b within 2e-15 of itself below (measured: 8.4e-14
    # and 2.0e-15, both next to the switch, 2e-14 elsewhere, and h
    # 2.4e-16); the start at or below a0/4 and within 34 eps
    # (|a0/4| + 2|b|) of it
    for q in _QS:
        with localcontext() as ctx:
            ctx.prec = 60
            ref = a0_reference(q)
            dq = q * 1e-12
            up, down = q + dq, q - dq
            slope = (a0_reference(up) - a0_reference(down)) / (Decimal(up) - Decimal(down))
            b_ref = -slope / 2
            if q > _Q_PADE:
                h_ref = (ref + 2 * Decimal(q)) / Decimal(q).sqrt()
                assert abs(Decimal(_h(q)) - h_ref) <= Decimal("1e-15"), q
                low = Decimal(eigen._a0(q)[2])  # (1 - b)(1 - 1e-13)
                assert abs(low / (1 - Decimal(1e-13)) / (1 - b_ref) - 1) <= Decimal("1e-13"), q
                assert low <= 1 - b_ref, q
            else:
                b = Decimal(eigen._a0(q)[1])
                assert abs(b / b_ref - 1) <= Decimal("2e-15"), q
            lam = ref / 4
            gap = lam - Decimal(eigen._start(-0.25 * q))
            assert 0 <= gap <= Decimal(34 * _EPS * (abs(float(lam)) + 0.5 * q)), q


def test_the_slope_of_b_meets_its_error_bound():
    # b'(q) = -a0''/2 against the 40-digit a0's central second difference
    # at step 1e-9 q in 60 digits: within 1e-12 of itself up to
    # q = (16/11)^2 and 1e-10 above (measured: 2.5e-13 and 2.9e-11, both
    # next to the switch), on both sides of the switch
    for q in np.geomspace(0.02, 1e7, 88).tolist() + [_Q_PADE, math.nextafter(_Q_PADE, 3.0)]:
        with localcontext() as ctx:
            ctx.prec = 60
            qd = Decimal(q)
            dq = qd * Decimal("1e-9")
            curv = a0_reference(qd + dq) - 2 * a0_reference(qd) + a0_reference(qd - dq)
            curv /= dq * dq
            err = abs(Decimal(eigen._a0(q)[3]) / (-curv / 2) - 1)
        assert err <= Decimal("1e-12" if q <= _Q_PADE else "1e-10"), q


def test_the_second_even_level_lies_a_gap_above_the_first():
    # (a2 - a0)/4 >= max(1, sqrt(q)): 1 at q = 0, rising to 2 sqrt(q).
    # The even operator's symmetric form, 4m^2 on the diagonal and
    # couplings sqrt(2) q, q, ..., on rows far past where its second state
    # decays, so that the truncation moves neither level
    for q in [0.0] + np.geomspace(1e-3, 1e5, 80).tolist():
        rows = int(math.sqrt(q / 2.0) + 10.0 * q**0.25) + 40
        off = np.full(rows - 1, -q)
        off[0] *= math.sqrt(2.0)
        diag = 4.0 * np.arange(rows, dtype=float) ** 2
        a0, a2 = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:2]
        assert (a2 - a0) / 4.0 >= max(1.0, math.sqrt(q)) * (1.0 - 1e-12), q
