"""a0 from the kernel against a 40-digit oracle that does not use it.

``helpers.a0_reference`` solves the characteristic equation of the even
Mathieu recurrence by Newton's method in 60-digit decimal arithmetic; it is
first checked against a0's exact small-q series.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from helpers import a0_reference, a0_small_q_series, has_eigenvalue_below

from compactseq import eigen, mathieu
from compactseq.mathieu import char_value_a0

_EPS = np.finfo(float).eps


def test_the_reference_matches_the_exact_series():
    # 29 terms of the series in q^2, whose radius is about 1.47, leave out
    # less than 1e-60 relative at q = 0.1 and 1e-40 at 0.2
    coeffs = a0_small_q_series(29)
    for q in (0.01, 0.05, 0.1, 0.2):
        x = Fraction(q) ** 2
        series = sum(c * x ** (j + 1) for j, c in enumerate(coeffs))
        with localcontext() as ctx:
            ctx.prec = 60
            exact = Decimal(series.numerator) / Decimal(series.denominator)
            assert abs(a0_reference(q) / exact - 1) <= Decimal("1e-38"), q


def test_a0_matches_the_reference():
    # within 8 eps (|a0| + 2|q|), 8 rounding levels of the kernel's matrix
    # 4 tridiag(k^2, -|q|/4), at 100 q of both signs (1.3 at most)
    for q in np.geomspace(1e-2, 1e4, 50).tolist():
        ref = a0_reference(q)
        for signed in (q, -q):
            a0 = char_value_a0(signed)
            assert abs(Decimal(a0) - ref) <= Decimal(8.0 * _EPS * (abs(a0) + 2.0 * q)), signed


def test_the_certified_enclosure_holds_the_reference():
    # at 100 q of both signs the two pivot passes certify the table's
    # a0/4 to within m = 8 eps (|a0/4| + 2|b|), b = -|q|/4, at the first
    # width, and the 40-digit a0/4 lies inside
    for q in np.geomspace(1e-2, 1e4, 50).tolist():
        ref = a0_reference(q) / 4
        for signed in (q, -q):
            b, _ = mathieu._grid(signed)
            est, m = eigen._ground_value(b)
            assert m <= 8.0 * _EPS * (abs(est) + 2.0 * abs(b)), signed
            assert Decimal(est) - Decimal(m) <= ref <= Decimal(est) + Decimal(m), signed
            assert char_value_a0(signed) == 4.0 * est


def test_the_no_question_is_a_sturm_no_on_the_grid():
    # at 202 q of both signs from 1e-300 to 1e20, at the first width m, the
    # no holds at est - 3m/4 and fails at est + 3m/4; wherever it holds, the
    # Sturm test on the half of ``_grid``'s n0 rows finds no eigenvalue at
    # or below the shift, and at est + 3m/4 it finds one
    for q in np.geomspace(1e-300, 1e20, 101).tolist():
        for signed in (q, -q):
            b, n = mathieu._grid(signed)
            est, m = eigen._ground_value(b)
            assert m == max(8.0 * _EPS * (abs(est) + 2.0 * abs(b)), 5e-324), signed
            half = eigen._k2_grid(n)[n:].tolist()
            for s, no in ((est - 12.0 * m, True), (est - 0.75 * m, True), (est + 0.75 * m, False)):
                assert eigen._no(b, s) is no, (signed, s)
                assert has_eigenvalue_below(half, b * b, s) is not no, (signed, s)
