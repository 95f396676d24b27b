"""The ground eigenpair of tridiag(k^2, b) on the grid k = -N..N.

That one matrix family is the pencil A - lambda1*B, with A = diag(k^2)
and the coupling b = -lambda1/2 <= 0, that the designer and the Mathieu
evaluator both solve.  It commutes with the reversal, so its ground
state, the unique positive eigenvector, is even: it is solved on the rows
k = 0..N alone, d_i = i^2, and mirrored.  On that half only row 0
changes.  It couples to v_1 and to v_-1 = v_1, so its upper coupling is
2b, as in (a - 4)A_2 - q(A_4 + 2A_0) = 0 for the Mathieu coefficients
(DLMF 28.4.5).

The inverse-iteration shift is placed by Laguerre's iteration on the
shifted LDL^T recurrence of the half

    p_0 = d_0 - s,    p_1 = d_1 - s - 2 b^2 / p_0,
    p_i = d_i - s - b^2 / p_{i-1},

which has as many negative pivots as the half has eigenvalues below the
shift s: s is a certified no when all its pivots are positive (a zero
pivot counts as negative).  The pivots' derivatives in s give the sums of
1/(lam_j - s) and 1/(lam_j - s)^2, from which Laguerre's step climbs from
below the minimum to it cubically without passing it (Li and Zeng, SIAM
J. Sci. Comput. 1994).  The climb starts from a0(q)/4, q = 4|b|, less a
margin (``_start``); one step lands it at rounding (``_climb``).  It sees
only the rows 0..W-1 past which the ground state is below eps^2
(``_support``).  One pass, ``_solve``, both certifies the shift, as the
shifted half is an M-matrix exactly when its elimination meets no
pivot <= 0, and solves at it: it solves on those W rows (rows 0 and 1
always) and runs the pivots alone on past them, until they provably
stay above |b| (``_clears``) or the half ends.  Each pivot is a chain of
correctly rounded operations monotone in s, so the computed verdict is
monotone in s (Demmel, Dhillon and Ren, ETNA 1995), and a landing that
rounding carries onto a yes retreats by a fraction of the rounding level.
There is no bisection, and the value returned is the Rayleigh quotient.
With b <= 0 the shifted matrix has an entrywise positive inverse, so the
iterate, started from a positive vector, stays positive and needs no sign
fix-up.  Past row W-1 it is exact zeros, where the ground state is below
eps^2 of its peak; its residual, on all 2N+1 rows, is checked against the
contract.  The pair keeps the shift as its certificate.  The Mathieu a0
tables solve nothing: one pivot-only question, ``_no``, asked just below
and just above the table's a0/4, certifies it on the whole line
(``_ground_value``); each pass ends at its first pivot <= 0 or its clear
row, so it needs no grid.

This module alone reads the a0 table: ``_estimate`` for the climb's start
and ``_a0`` for ``_seed``, its one runtime caller, the root of
b = -a0'(q)/2 = alpha on the whole line that the designer starts from.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = ["EigenPair", "EigenConvergenceError", "min_eigenpair"]

_MAX_CLIMB = 30
_EPS = float(np.finfo(float).eps)
_TAIL = _EPS * _EPS
# a0(q), 4 times the minimum of the infinite even operator: up to
# q = (16/11)^2 the [14/14] Pade approximant of a0/q^2 in q^2, exact from
# DLMF 28.4.5, as pairs (P_j, Q_j) of a0 = q^2 P(q^2)/Q(q^2), highest power
# first (every P_j < 0, Q_j > 0), within 2.2 ulps.  Above, h = (a0 + 2q) z,
# z = q^-1/2, which tends to 2 (DLMF 28.8.1): on each piece [lo, hi] of z
# the Chebyshev interpolant at 33 Lobatto nodes of the 40-digit a0, cut
# where the rest of its coefficients sum below 2e-16, in powers of
# t = 2 (z - lo)/(hi - lo) - 1, highest first.  h is within 1e-15, and
# 1 - b = z (h - z h')/4, b = -a0'/2, within 1e-13 of itself.  ``_a0``
# reads it for ``_seed``, its one runtime caller, and ``_estimate``, value
# only, for the climb's start and the Mathieu a0.
_A0_PADE = (
    (-4.382754104315206e-14, 1.082313291769662e-12),
    (-3.7828914530027274e-11, 3.589922214890107e-10),
    (-5.557357282007488e-09, 3.478445929536613e-08),
    (-3.2270892362386737e-07, 1.5597199676314548e-06),
    (-9.777372888336451e-06, 3.935322132050246e-05),
    (-0.00017721890776857598, 0.000620764385044625),
    (-0.002077367455807461, 0.0065169169807787735),
    (-0.016497221852859997, 0.047287475903003105),
    (-0.09112359483764124, 0.2421855699131475),
    (-0.3539023391977498, 0.8819251882530682),
    (-0.9627546760329107, 2.269278277625584),
    (-1.7956288798633229, 4.031316500979246),
    (-2.186758736032115, 4.702859364836588),
    (-1.5659548034672843, 3.2412846069345687),
    (-0.5, 1.0),
)
_A0_BREAKS = (0.0, 0.125, 0.25, 0.4375, 0.6875)  # piece i: z in [B_i, B_i+1]
_Q_PADE = _A0_BREAKS[-1] ** -2
_A0_SERIES = (
    (-1.1660106496985916e-12, -1.5386103588967074e-12, 2.003634720965816e-12,
     2.7395932230867537e-12, -1.7629906749225295e-12, -3.9726883595229115e-12,
     -2.3423598579548862e-11, -3.513858142744898e-10, -6.017297391818705e-09,
     -1.2425274900216693e-07, -3.304155331977913e-06, -0.00013129261037256887,
     -0.015878141637485396, 1.9842499653828154),
    (-4.6628544490717125e-12, -4.273995869116785e-12, 6.969628515714e-11, 1.0118961356490348e-11,
     -7.338577399522433e-10, 5.0210675140172194e-11, 7.592447136348816e-09, 7.100392388750071e-09,
     -6.689531752259518e-08, -2.8330573943130877e-07, -5.888538257668618e-07,
     -9.477813728801258e-07, -5.227114121187324e-06, -0.0001550185080521442,
     -0.016447606552017005, 1.9519398562781303),
    (2.1497112661445613e-11, -1.1896181553143745e-10, 1.1727853528922677e-10,
     1.2900541724129112e-09, -6.6148721644731144e-09, 6.1791519468445135e-09,
     7.725876568103033e-08, -3.4653273473426887e-07, -4.1545973540806864e-07,
     6.6973001295194575e-06, 5.2816954837818084e-06, -0.00010514659528432827,
     -0.00042294867337032107, -0.001104407166858158, -0.026520357137089796, 1.9095949582002159),
    (-4.7976763030188445e-11, 2.1080466117277082e-10, -1.76939150582539e-10,
     -4.1786022733535174e-10, 3.454816677747774e-09, -8.625405356974553e-08,
     5.437056566540231e-07, 6.386407442455411e-07, -1.846714013794096e-05, 2.9622506117588224e-05,
     0.00037396371933117687, -0.0007760392632336116, -0.009099735958396332, -0.05510971497183828,
     1.8343415066579964),
)


class EigenConvergenceError(RuntimeError):
    """No certified shift was found, or the one inverse-iteration solve
    missed the residual contract."""


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue/eigenvector pair with its 2-norm residual and ``s``, the
    solve's certified shift below every eigenvalue."""

    value: float
    vector: np.ndarray
    residual: float
    s: float


@functools.lru_cache(maxsize=1)
def _k2_grid(half_len):
    """The read-only diagonal k^2 on k = -N..N, N = ``half_len``, that the
    designer, the Mathieu evaluator and ``min_eigenpair``'s check share: the
    last one is kept, so a run of solves on one grid builds it once and the
    kernel recognises it by identity, not entry by entry."""
    k = np.arange(-half_len, half_len + 1, dtype=float)
    grid = k * k
    grid.setflags(write=False)
    return grid


def _laguerre_step(d, b2, s):
    """Laguerre's step from ``s`` toward the minimum of the even half ``d``,
    from the sums of 1/(lam_j - s) and its square, which the pivots' -p'/p
    and -p''/p build up, times p_0 = d_0 - s and its square, so that none
    overflows near a tiny minimum (every pivot is at least lam_1 - s, by
    interlacing); None at a pivot <= 0, as in ``_solve``."""
    p0 = piv = d[0] - s
    if piv <= 0.0:
        return None
    g = s1 = s2 = 1.0
    h = 0.0
    c2 = 2.0 * b2
    for di in d[1:]:
        t = c2 / piv
        c2 = b2
        piv = di - s - t
        if piv <= 0.0:
            return None
        tp = t / piv
        h = tp * (h + 2.0 * g * g)
        g = p0 / piv + tp * g
        s1 += g
        s2 += g * g + h
    n = len(d)
    return p0 * (n / (s1 + math.sqrt(max(0.0, (n - 1) * (n * s2 - s1 * s1)))))


def _piece(q):
    """z = q^-1/2, k, t and the series piece's coefficients at q > (16/11)^2."""
    z = 1.0 / math.sqrt(q)
    i = bisect_left(_A0_BREAKS, z, 1) - 1
    lo, hi = _A0_BREAKS[i:i + 2]
    k = 2.0 / (hi - lo)
    return z, k, k * (z - lo) - 1.0, _A0_SERIES[i]


def _a0(q):
    """a0(q), b = -a0'(q)/2, 1 - b and b'(q) for q >= 0: up to (16/11)^2 the
    Pade's a0 = N/Q, N = x P(x), x = q^2, and above it h's series in
    t = k (z - lo) - 1, k = 2/(hi - lo), with a0 = (h z - 2)/z^2,
    1 - b = z (h - z h')/4 taken 1e-13 of itself low and b = 1 - (1 - b)."""
    if q <= _Q_PADE:
        x = q * q
        p = p1 = p2 = r = r1 = r2 = 0.0  # P, Q, their x-derivatives, half the second
        for cp, cr in _A0_PADE:
            p2, p1, p = p2 * x + p1, p1 * x + p, p * x + cp
            r2, r1, r = r2 * x + r1, r1 * x + r, r * x + cr
        u2, u1, u = p2 * x + p1, p1 * x + p, p * x
        d1 = (u1 * r - u * r1) / (r * r)  # (N/Q)', so b = -q (N/Q)'
        d2 = (2.0 * (u2 * r - u * r2) / r - 2.0 * r1 * d1) / r
        b = -q * d1
        return u / r, b, 1.0 - b, -d1 - 2.0 * x * d2
    z, k, t, series = _piece(q)
    h = h1 = h2 = 0.0  # h, dh/dt and half of d2h/dt2
    for c in series:
        h2, h1, h = h2 * t + h1, h1 * t + h, h * t + c
    g = h - k * z * h1
    omb = 0.25 * z * g * (1.0 - 1e-13)
    return (h * z - 2.0) / (z * z), 1.0 - omb, omb, 0.125 * z**3 * (g - 2 * (k * z)**2 * h2)


def _seed(alpha):
    """(log(l1), q b'(q)) where b = alpha at q = 2 l1, b = -a0'(q)/2 from
    ``_a0``: the designer's seed and the slope of b in log(l1) there.  The seed is
    at or below the root to rounding: b is concave and rising in q, so Newton
    steps land below the root after the first and climb, from the root's small-
    and large-q series 2 alpha (1 + 7 alpha^2/8) and 1/(4 (1 - alpha)^2) + 1/32
    (DLMF 28.6.1, 28.8.1), until a step is below 1e-8 q, as the error then
    left, |b''/(2b')| step^2 <= step^2/q, is below rounding."""
    q = 2.0 * alpha * (1.0 + 0.875 * alpha * alpha)
    if alpha >= 0.68:
        q = 0.25 / (1.0 - alpha) ** 2 + 0.03125
    for _ in range(16):
        _, b, omb, db = _a0(q)
        # where b >= 1/2, (1 - alpha) - (1 - b) keeps the bits of 1 - b near 1
        # and, for alpha >= 1/2, rounds as b - alpha (both differences exact)
        step = -(b - alpha if b < 0.5 else (1.0 - alpha) - omb) / db
        q += step
        if abs(step) <= 1e-8 * q:
            break
    return math.log(0.5 * q), q * db


def _estimate(b):
    """a0(q)/4 at q = 4|b|, ``_a0``'s bit for bit from its recurrences for
    P, Q and h alone: within 2.2 ulps or 0.25e-15 sqrt(q) of a0/4."""
    q = 4.0 * abs(b)
    if q <= _Q_PADE:
        x, p, r = q * q, 0.0, 0.0
        for cp, cr in _A0_PADE:
            p, r = p * x + cp, r * x + cr
        return 0.25 * (p * x / r)
    z, _, t, series = _piece(q)
    h = 0.0
    for c in series:
        h = h * t + c
    return 0.25 * ((h * z - 2.0) / (z * z))


def _start(b):
    """The climb's start at the coupling ``b``: below every even half's minimum.

    A half's symmetric form, couplings sqrt(2) b, b, ..., is a leading
    block of the infinite even operator, whose minimum is a0(q)/4 at
    q = 4|b|, so by Cauchy interlacing no half's minimum lies below it.  The
    margin below ``_estimate``, 32 eps (|a0/4| + 2|b|), covers the table's
    error.  Below |b| = 2^-976 it is subnormal, but every pivot at it,
    below the minimum ~ -2b^2, is positive; below 2^-1029, where it would
    round to 0 and the start a0/4 = -0.0 be a yes (p_0 = 0), it is held at
    2^-1074."""
    est = _estimate(b)
    return est - max(32.0 * _EPS * (abs(est) + 2.0 * abs(b)), 5e-324)


def _ground_value(b):
    """(est, m): ``_estimate``'s a0(q)/4, q = 4|b|, and the half-width of
    the enclosure est -+ m of lam_min(H), H the infinite even operator,
    that two pivot passes certify: m = max(8 eps (|est| + 2|b|), 2^-1074),
    else 4m or 16m; :class:`EigenConvergenceError` if none is certified.

    A no from ``_no`` at est - 3m/4 puts lam_min(H) above the shift.  A
    yes at est + 3m/4 ends at the first p_i <= 0, on some rows 0..J, so
    lam_min(H) <= lam_min(H_J) <= s by interlacing, whatever J is: the
    pass needs no grid and ends, as the no does, at its clear row.  Each
    p_i is P_i (1 + a_i)(1 + e_i), the rounding of its two differences,
    P_i exact for couplings off by 1.3 eps (Demmel, Dhillon and Ren): the
    signs agree, and H moves by < 3.2 eps |b|, below m/4 less the shifts'
    rounding.  Below |b| = 2^-490, where b^2/p may be subnormal, est is
    within 3b^2 of 0 and the shifts >= 12 eps |b| from it: the yes ends at
    p_0 = -s < 0 and the no at p_1 = 1 - s - 2b^2/p_0, within 2^-430 of
    1 - s, as in exact arithmetic."""
    est = _estimate(b)
    m = max(8.0 * _EPS * (abs(est) + 2.0 * abs(b)), 5e-324)
    for m in (m, 4.0 * m, 16.0 * m):
        if _no(b, est - 0.75 * m) and not _no(b, est + 0.75 * m):
            return est, m
    raise EigenConvergenceError(f"no certified enclosure of {est!r}")


def _no(b, s):
    """Whether the shift ``s`` is a certified no below lam_min(H), H the
    infinite even operator at the coupling ``b``: its pivots
    p_0 = -s and p_1 = 1 - s - 2b^2/p_0 are positive and ``_clears`` runs
    on from row 1 to its clear row, where the rest provably stay so."""
    b2 = b * b
    return -s > 0.0 and _clears(b, s, 1, 1 - s - 2.0 * b2 / -s, 0)


def _clears(b, s, i, p, end):
    """Whether the pivots of the even half of the k^2 grid at the shift
    ``s`` stay positive from row ``i`` >= 1, whose pivot is ``p``, through
    row ``end`` - 1 (on every row if ``end`` is 0), continued pivots only:
    False at the first pivot <= 0, True past row ``end`` - 1 or at the
    first row J >= i where fl(J^2 - s) > 2|b| and p_J > |b| (1 + 4 eps).

    Every later pivot then exceeds |b|: J^2 - s > 2|b|, as 2|b| is a
    double, and the exact P_J >= p_J/(1 + eps/2)^2 > |b|, P_J the pivot of
    a matrix whose couplings are off by 1.3 eps (Demmel, Dhillon and Ren),
    so every P_i = i^2 - s - b^2/P_i-1 > |b| after it."""
    a = abs(b)
    r, b2, clear = a + a, b * b, a * (1.0 + 4.0 * _EPS)
    while p > 0.0 and not (p > clear and i * i - s > r):
        i += 1
        if i == end:
            return True
        p = i * i - s - b2 / p
    return p > 0.0


def _support(a, end, tol):
    """The first row i < ``end`` of the even half of the k^2 grid
    (off-diagonal of magnitude ``a``) from which Parlett's ratio bound puts
    the ground state below ``tol`` of its largest entry, else ``end``.

    lam_min <= d_0 = 0, so from the first row j0 with j0^2 > 2a the ratio
    v_i / v_{i-1} is at most a / (i^2 - a) < 1 (Parlett, The Symmetric
    Eigenvalue Problem, ch. 7); i is the first row where the product of
    those factors from j0 is below ``tol``."""
    j = math.isqrt(int(2.0 * a)) + 1  # j0; k^2 rises, so no row after it dips back
    amp = 1.0
    for i in range(j, end):
        amp *= a / (i * i - a)
        if amp < tol:
            return i
    return end


def _climb(d, b):
    """A certified no within a few ulps of the minimum of the even half
    ``d`` = (0, 1, 4, ..., N^2) and its inverse iterate: the shift and the
    ground state's half on its rows 0..max(W, 2) - 1, unnormalised, past
    which it is below eps^2 of its peak.  Rows 0 and 1 are always solved:
    at a large spread the designer's alpha ~ 2 v_0 v_1 and
    delta_n2 ~ 2 v_1^2 rest on v_1.

    Laguerre steps on the n = W rows that ``_support`` keeps climb from
    x_0, ``_start`` or the Gershgorin bound if higher, both at or below
    mu_1 = a0(q)/4, q = 4|b|; a start that is a yes restarts from
    Gershgorin, which becomes x_0, so correctness never rests on the
    margin.  Every step L from a point x lands if 4 (n-1) L <= g and
    2 (n-1) L^3/g^2 <= eps (|x + L| + 2|b|), a quarter of the rounding
    level, where g = G - (x - x_0), G = max(1, sqrt(q)).  A step at
    rounding ends the climb too: where the grid lifts the window's minimum
    more than G above x_0, as at 5 and 21 taps near b_sup, g falls below 0
    and no step lands.

    Proof: let lam_1 < lam_2 <= ... be the window's eigenvalues and
    delta = lam_1 - x.  Interlacing puts lam_j, j >= 2, at or above the
    operator's second level mu_2, and mu_2 - mu_1 = (a2 - a0)/4 >= G
    (measured: 1 at q = 0, to 2 sqrt(q) - 3/4 at large q), so
    lam_j - x >= mu_1 + G - x >= g, as x_0 <= mu_1.  With u = 1/delta, A
    and B the sums of 1/(lam_j - x) and its square over j >= 2, so
    A <= (n-1)/g and B <= (n-1)/g^2, P = (n-1) u - A and
    E = n ((n-1) B - A^2) >= 0, Laguerre's step has 1/L - u =
    (sqrt(P^2 + E) - P)/n <= (n-1) B/(2P), so the error delta - L <=
    delta^2 (1/L - u) is at most (n-1) delta k^2/(2 (1 - k)), k = delta/g:
    Li and Zeng's delta^3 B/2 with room; 1/L <= u + A gives delta <= 4L/3,
    k <= 1/3 and the bound 2 (n-1) L^3/g^2.  So a start eight rounding
    levels low lands on its first step unless n sqrt(q) passes about 1e13,
    and a climb from Gershgorin, about G/2 below mu_1, keeps g near G/2 or
    more up to mu_1.

    The shift is tried at w/4, w/2 and w below the point x reached, w =
    4 eps (|x| + 2|b|), and at the last iterate; ``_solve``, which solves
    on the window and certifies on all of ``d``, refuses a try that
    rounding has carried onto a yes.  Every try sits
    eps*w lower, so lam - s, the inverse of an inverse iterate's growth, is
    at least about eps*w >= 2^(e-103), with 2^(e-1) <= |s| + 2|b| < 2^e, or
    2^-1074 where eps*w underflows (e < -971): s is then a negative double
    below lam ~ -2b^2, which lies far closer to 0."""
    b2 = b * b
    r = 2.0 * abs(b)
    floor = -r - 8.0 * _EPS * r  # the Gershgorin bound, a rounding level lower
    x = max(floor, _start(b))
    n = _support(abs(b), len(d), _TAIL)
    rows = d if n == len(d) else d[:n]
    gap = max(1.0, 2.0 * math.sqrt(abs(b)))  # G = max(1, sqrt(q))
    unit = 1.0 / math.sqrt(2 * len(d) - 1)
    below, x0 = -math.inf, x
    for _ in range(_MAX_CLIMB):
        step = _laguerre_step(rows, b2, x)
        if step is None:
            if below == -math.inf and x > floor:
                x = x0 = floor  # the start is a yes: climb from Gershgorin
                continue
            break  # rounding carried x onto a yes
        below = x
        x += step
        if step <= 4.0 * _EPS * (abs(below) + r):
            break
        g = gap - (below - x0)
        if 4 * (n - 1) * step <= g and 2 * (n - 1) * step**3 <= g * g * _EPS * (abs(x) + r):
            break  # landed
    if below == -math.inf:
        raise EigenConvergenceError(f"the Gershgorin bound {x!r} is not certified")
    w = 4.0 * _EPS * (max(abs(below), abs(x)) + r)
    for m in (0.25, 0.5, 1.0, math.inf):
        s = max(below, x - m * w) - _EPS * w
        c = max(math.frexp(abs(s) + r)[1] - 52, -1000)
        y = _solve(d, b, s, [math.ldexp(unit, c)] * max(n, 2))
        if y is not None:
            return s, y
    raise EigenConvergenceError(f"no certified shift below {x!r}")


def _solve(d, b, s, y):
    """Solve (H_w - s) z = y in place, H_w the leading w = len(y) >= 2 rows
    of the even half H = tridiag(``d``, b) of the k^2 grid, 2b above row 0,
    and return it; None, y spoiled, at the first pivot <= 0 on all of H,
    where H has an eigenvalue at or below ``s``.  The pivots
    d_i - s - b^2/p_{i-1}, 2b^2 on row 1, certify ``s`` as in a Sturm count
    and eliminate y as they go; past row w - 1 they run on alone, until
    ``_clears`` proves the rest positive or H ends."""
    b2 = b * b
    piv = d[0] - s
    if piv <= 0.0:
        return None
    p = [piv]
    t = 2.0 * b2
    z = y[0]
    for i in range(1, len(y)):
        z = y[i] - b / piv * z
        piv = d[i] - s - t / piv
        if piv <= 0.0:
            return None
        y[i] = z
        p.append(piv)
        t = b2
    if len(y) < len(d) and not _clears(b, s, len(y) - 1, piv, len(d)):
        return None
    y[-1] = z / piv
    for i in range(len(y) - 2, 0, -1):
        y[i] = (y[i] - b * y[i + 1]) / p[i]
    y[0] = (y[0] - 2.0 * b * y[1]) / p[0]
    return y


def _residual_bound(value, scale):
    """The residual norm an eigenpair of value ``value`` must meet:
    1e-10 * (1 + |value|), or 100 * eps * ``scale``, 100 ulps of ||T||, where
    that is looser, as double precision cannot beat it."""
    return max(1e-10 * (1.0 + abs(value)), 100.0 * _EPS * scale)


def min_eigenpair(diag, offdiag) -> EigenPair:
    """Smallest eigenvalue and unit eigenvector of tridiag(diag, offdiag).

    ``diag`` must be k^2 on a grid k = -N..N, 2N+1 entries, and
    ``offdiag`` must be <= 0 with ||T|| = N^2 + 2|offdiag| finite and below
    2^256; anything else raises ``ValueError``.  The ground state is then
    even (the unique positive vector of a matrix that commutes with the
    reversal): it is solved on the rows k = 0..W-1 of its half,
    W = max(2, ``_support``'s row), mirrored, and 0.0 on the rows past
    them, where it is below eps^2 of its peak: entrywise nonnegative,
    positive on the solved rows and equal to its reverse bit for bit.  It
    comes from one inverse-iteration solve at the shift ``_climb``
    certifies, from a uniform start of norm at most 2^c,
    c = max(e - 52, -1000) with e as in ``_climb``, grown by at most
    1/(lam - s) <= 2^(103 - e), or 2^1074 where eps*w underflows: below
    about 2^74 at any coupling, and the clamp keeps the start normal where
    |b| is subnormal.  Its residual, on all 2N+1
    rows, the zeros' too, must meet max(1e-10 (1 + |value|), 100 eps ||T||)
    (``_residual_bound``), or :class:`EigenConvergenceError` is raised, as
    where no certified shift is found.  The pair's ``s`` is the shift (0
    where b = 0 or N = 0).
    """
    darr = np.asarray(diag, dtype=float)
    n = darr.size
    half_len = n // 2
    grid = _k2_grid(half_len)
    if darr is not grid and not np.array_equal(darr, grid):
        raise ValueError(f"diag must be k^2 on a grid k = -N..N, got {n} entries")
    b = float(offdiag)
    if b > 0.0:
        raise ValueError(f"offdiag must be <= 0, got {b!r}")
    scale = half_len * half_len + 2.0 * abs(b)  # ||T|| = N^2 + 2|b|
    # every design and Mathieu grid lies far below 2^256 (|b| <= 2.5e20),
    # and 2^256 far below 1e154, where b^2 and the square of the residual
    # would leave the float range
    if not scale < 2.0**256:
        raise ValueError(f"offdiag must be finite with N^2 + 2|offdiag| < 2^256, got {b!r}")
    if b == 0.0 or n == 1:
        vec = np.zeros(n)
        vec[half_len] = 1.0
        vec.setflags(write=False)
        return EigenPair(0.0, vec, 0.0, 0.0)

    s, y = _climb(darr[half_len:].tolist(), b)
    v = np.zeros(n)
    v[half_len + 1 - len(y):half_len + len(y)] = y[:0:-1] + y
    v /= math.sqrt(v @ v)
    tv, bv = darr * v, b * v
    tv[:-1] += bv[1:]
    tv[1:] += bv[:-1]
    lam = float(v @ tv)
    tv -= np.multiply(lam, v, out=bv)  # now the residual
    res = math.sqrt(tv @ tv)
    if not res <= _residual_bound(lam, scale):
        raise EigenConvergenceError(f"inverse iteration missed the residual bound at {res:.3e}")
    v.setflags(write=False)
    return EigenPair(lam, v, res, s)
