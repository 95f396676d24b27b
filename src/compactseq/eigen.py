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
shift s: s is a certified no, below every eigenvalue, when all its
pivots are positive (a zero pivot counts as negative).  The pivots'
derivatives in s give the sums of 1/(lam_j - s) and 1/(lam_j - s)^2, and
Laguerre's step from them climbs from any point below the minimum to it
cubically without passing it (Li and Zeng, SIAM J. Sci. Comput. 1994).
The climb starts from a rational lower estimate of a0(q)/4 at q = 4|b|:
the half's symmetric form is a leading block of the infinite even
operator, whose minimum that is, so by Cauchy interlacing it lies below
the half's minimum on every grid.  About 2 passes then reach the rounding
level 4 eps (|s| + 2|b|), where the Gershgorin bound -2|b| took about 4;
a start that is a yes falls back to Gershgorin.
The climb sees only the rows 0..W-1 of the half (``_support`` at eps^2):
from row W on, Parlett's ratio bound, with lam_min <= d_0 = 0, puts the
ground state below eps^2 of its largest entry, so the minimum on those
rows lies less than |b| eps^2 above the half's, far inside the rounding
level.  On a long grid at a small coupling that is a few dozen of a
thousand rows; on every Mathieu grid, which ends where the same bound
reaches 1e-12, W is the whole half.  Everything after the climb uses all
N+1 rows.  The shifted half is an M-matrix exactly when its elimination
meets no pivot <= 0, so one pass on the full half, ``_solve``, both
certifies the shift and solves at it: it forms the pivots in the Sturm
form above, not re-formed as c (b / p_{i-1}), in which some would round
to <= 0 so close to the minimum, and gives up at the first pivot <= 0.
Where rounding carries a last step onto a yes, the shift retreats from
it by fractions of that level until the solve goes through; each pivot
is a chain of correctly rounded operations monotone in s, so the
computed verdict is monotone in s (Demmel, Dhillon and Ren, ETNA 1995)
and the retreat ends after a pass or two, at worst just below the last
iterate.  There is no bisection: the shift is a certified no a few ulps
below the minimum, and the value returned is the Rayleigh quotient.  The
solve starts from a uniform vector scaled by a power of two to the
shift's rounding level.  With b <= 0 the shifted matrix has an entrywise
positive inverse: Thomas elimination meets no cancellation and the
iterate, started from a positive vector, stays positive in floating
point, so the ground state needs no sign fix-up.  So close to the
minimum the one solve lands at rounding; its residual, taken on all
2N+1 rows, is checked against the contract, and a miss raises.  The pair
keeps the shift and W for the designer's one more solve, ``form_slope``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EigenPair", "EigenConvergenceError", "min_eigenpair", "form_slope"]

_MAX_CLIMB = 30
# the longest half N a caller builds a grid k = -N..N for
_MAX_HALF_LEN = 2**20
_EPS = float(np.finfo(float).eps)
_TAIL = _EPS * _EPS
_TINY = float(np.finfo(float).tiny)
# The Mathieu value a0(q) that starts the climb: up to q = 8 the [14/14]
# Pade approximant of a0/q^2 in q^2, exact from DLMF 28.4.5, as pairs
# (P_j, Q_j) of a0 = q^2 P(q^2)/Q(q^2), highest power first (every P_j < 0
# and Q_j > 0, so neither sum cancels); above, McLachlan's large-q series
# at s = 1 (DLMF 28.8.1), terms e q^(n/2) as (n, e).
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
_A0_LARGE_Q = (
    (2, -2.0), (1, 2.0), (0, -1.0 / 4.0), (-1, -4.0 / 2.0**7), (-2, -48.0 / 2.0**12),
    (-3, -848.0 / 2.0**17), (-4, -4752.0 / 2.0**20), (-5, -126752.0 / 2.0**25),
)


class EigenConvergenceError(RuntimeError):
    """No certified shift was found, or the one inverse-iteration solve
    missed the residual contract."""


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue/eigenvector pair with its 2-norm residual and ``s``, the
    solve's certified shift below every eigenvalue, kept with ``_rows``,
    the climb's window W, for ``form_slope``."""

    value: float
    vector: np.ndarray
    residual: float
    s: float
    _rows: int = field(default=0, repr=False, compare=False)


@functools.lru_cache(maxsize=1)
def _k2_grid(half_len):
    """The read-only diagonal k^2 on k = -N..N, N = ``half_len``: the one
    grid the designer, the Mathieu evaluator and ``min_eigenpair``'s check
    share.  The last one is kept, so a run of solves on one grid builds it
    once and the kernel recognises it by identity instead of comparing it
    entry by entry."""
    k = np.arange(-half_len, half_len + 1, dtype=float)
    grid = k * k
    grid.setflags(write=False)
    return grid


def _laguerre_step(d, b2, s):
    """Laguerre's step from ``s`` toward the minimum of the even half ``d``,
    from the sums of 1/(lam_j - s) and 1/(lam_j - s)^2, which the pivots'
    -p'/p and -p''/p build up; None at a pivot <= 0, as in ``_solve``."""
    piv = d[0] - s
    if piv <= 0.0:
        return None
    g, h = 1.0 / piv, 0.0
    s1, s2 = g, g * g
    c2 = 2.0 * b2
    for di in d[1:]:
        t = c2 / piv
        c2 = b2
        piv = di - s - t
        if piv <= 0.0:
            return None
        tp = t / piv
        h = tp * (h + 2.0 * g * g)
        g = 1.0 / piv + tp * g
        s1 += g
        s2 += g * g + h
    n = len(d)
    den = s1 + math.sqrt(max(0.0, (n - 1) * (n * s2 - s1 * s1)))
    return n / den if den > 0.0 else 0.0


def _start(b):
    """Where the climb at the coupling ``b`` starts: a lower estimate of the
    minimum of every even half, or -inf where its margin is not normal.

    A half is similar to its symmetric form, couplings sqrt(2) b, b, ...,
    a leading block of the infinite even operator, whose minimum is
    a0(q)/4 at q = 4|b| (``mathieu``), so by Cauchy interlacing no half's
    minimum lies below a0/4.  The estimate is a0/4 from ``_A0_PADE`` up to
    q = 8, within 2.2 ulps of a0 up to q = 2.2 and below it beyond (2.8e-5
    relative at q = 7.7), or from McLachlan's series above, which lies
    above a0 by 0.35 q^-3 at q = 8, falling to 0.004 q^-3 from q ~ 50 on
    (measured against a 40-digit a0).  The margin subtracted is 32 eps
    (|a0/4| + 2|b|), eight rounding levels of the climb, and above q = 8
    also 0.125 q^-3, McLachlan's error bound 0.5 q^-3 over 4.  It is normal
    from |b| = 2^-976 (about 1.6e-294) on.  Below, 1/(lam_j - x) would
    overflow in the first Laguerre step, which then returns 0: the climb
    would stop at the start, and the shift a margin below the minimum
    would spoil the tap v_1 ~ |b| v_0 by about margin/|b| = 64 eps
    (1.4e-14 at |b| = 1e-300).  The climb starts from Gershgorin there."""
    q = 4.0 * abs(b)
    if q <= 8.0:
        x = q * q
        p = r = 0.0
        for cp, cr in _A0_PADE:
            p, r = p * x + cp, r * x + cr
        est, err = 0.25 * x * p / r, 0.0
    else:
        z = 1.0 / math.sqrt(q)
        p = 0.0
        for _, e in sorted(_A0_LARGE_Q):  # e z^(-n): in z, highest power first
            p = p * z + e
        est, err = 0.25 * p / (z * z), 0.125 * z**6
    margin = err + 32.0 * _EPS * (abs(est) + 0.5 * q)
    return est - margin if margin >= _TINY else -math.inf


def _support(a, end, tol):
    """The first row i < ``end`` of the even half of the k^2 grid
    (off-diagonal of magnitude ``a``) from which Parlett's ratio bound puts
    the ground state below ``tol`` of its largest entry, else ``end``.

    lam_min <= d_0 = 0, so from the first row j0 with j0^2 > 2a the ratio
    v_i / v_{i-1} is at most a / (i^2 - a) < 1 (Parlett, The Symmetric
    Eigenvalue Problem, ch. 7); i is the first row where the product of
    those factors from j0 is below ``tol``.  None is below
    a / ((end - 1)^2 - a): where end - j0 of them cannot reach ``tol``, as
    at eps^2 on every Mathieu grid, no row is scanned."""
    j = math.isqrt(int(2.0 * a)) + 1  # j0; k^2 rises, so no row after it dips back
    if j >= end or (a / ((end - 1) ** 2 - a)) ** (end - j) >= tol:
        return end
    amp = 1.0
    for i in range(j, end):
        amp *= a / (i * i - a)
        if amp < tol:
            return i
    return end


def _climb(d, b):
    """A certified no within a few ulps of the minimum of the even half
    ``d`` = (0, 1, 4, ..., N^2), its inverse iterate and the window W: the
    shift, the ground state's half, unnormalised, and the rows the steps saw.

    Laguerre steps on the rows 0..W-1 that ``_support`` keeps at eps^2
    climb from ``_start``, a0(4|b|)/4 less its margin, which interlacing
    puts below the minimum, or from the Gershgorin bound if that is higher,
    until a step is at rounding, <= 4 eps (|x| + 2|b|): about 2 passes, the
    first across the margin and the second at rounding.  If the first pass
    finds a pivot <= 0, the start is a yes and the climb restarts from the
    Gershgorin bound; so correctness never rests on the margin, as a start
    below the minimum climbs to it monotonically and ``_solve`` certifies
    the shift either way.  The point x + step the steps reach is the shift
    if ``_solve`` goes through at it on all of ``d``.  Otherwise, as when a
    step lands on a yes, the shift retreats from that point by w/16, w/8,
    ..., w, with w the rounding level of the landing, and never below the
    last iterate: it stays within a few ulps of the minimum and moves
    smoothly with the matrix.  Every try sits eps*w lower, the same double
    unless the shift is tiny, so lam - s, the inverse of an inverse
    iterate's growth, is at least about eps*w >= 2^(e-103), with
    2^(e-1) <= |s| + 2|b| < 2^e.  Where eps*w underflows (e < -971) it is
    at least about 2^-1074 instead: s is then a negative double below
    lam ~ -2b^2, which lies far closer to 0 than 2^-1074."""
    b2 = b * b
    r = 2.0 * abs(b)
    floor = -r - 8.0 * _EPS * r  # the Gershgorin bound, a rounding level lower
    x = max(floor, _start(b))
    n = _support(abs(b), len(d), _TAIL)
    rows = d if n == len(d) else d[:n]
    unit = 1.0 / math.sqrt(2 * len(d) - 1)
    below = -math.inf
    for _ in range(_MAX_CLIMB):
        step = _laguerre_step(rows, b2, x)
        if step is None:
            if below == -math.inf and x > floor:
                x = floor  # the start is a yes: climb from Gershgorin
                continue
            break  # rounding carried x onto a yes
        below = x
        x += step
        if step <= 4.0 * _EPS * (abs(below) + r):
            break
    if below == -math.inf:
        raise EigenConvergenceError(f"the Gershgorin bound {x!r} is not certified")
    w = 4.0 * _EPS * (max(abs(below), abs(x)) + r)
    # a climb that ended on a yes skips m = 0, the point just refused
    for m in (0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0, math.inf)[step is None:]:
        s = max(below, x - m * w) - _EPS * w
        c = max(math.frexp(abs(s) + r)[1] - 52, -1000)
        y = _solve(d, b, s, [math.ldexp(unit, c)] * len(d))
        if y is not None:
            return s, y, n
    raise EigenConvergenceError(f"no certified shift below {x!r}")


def _solve(d, b, s, y):
    """Solve (H - s) z = y in place on the leading len(y) rows of the even
    half H = tridiag(``d``, b), 2b above row 0, and return it; None, y
    spoiled, at the first pivot <= 0, where those rows have an eigenvalue
    at or below ``s``.  The pivots d_i - s - b^2/p_{i-1}, 2b^2 on row 1,
    certify ``s`` as in a Sturm count, and eliminate y as they go."""
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
    y[-1] = z / piv
    for i in range(len(y) - 2, 0, -1):
        y[i] = (y[i] - b * y[i + 1]) / p[i]
    y[0] = (y[0] - 2.0 * b * y[1]) / p[0]
    return y


def _residual_bound(value, scale):
    """Residual norm an eigenpair of value ``value`` must meet.

    The contract is 1e-10 * (1 + |value|) unless the matrix norm ``scale``
    makes that tighter than 100 ulps of ||T||, which double precision
    cannot beat; then the ulp floor 100 * eps * scale applies.
    """
    return max(1e-10 * (1.0 + abs(value)), 100.0 * _EPS * scale)


def min_eigenpair(diag, offdiag) -> EigenPair:
    """Smallest eigenvalue and unit eigenvector of tridiag(diag, offdiag).

    ``diag`` must be k^2 on a grid k = -N..N, 2N+1 entries, and
    ``offdiag`` must be <= 0 with ||T|| = N^2 + 2|offdiag| finite and below
    2^256; anything else raises ``ValueError``.  The ground state is then
    even (the unique positive vector of a matrix that commutes with the
    reversal), so it is solved on the rows k = 0..N alone and mirrored: the
    returned vector is entrywise nonnegative with no sign fix-up and equals
    its reverse bit for bit.  The residual contract, checked on all rows,
    is ``max(1e-10 * (1 + |value|), 100 * eps * ||T||)``
    (``_residual_bound``): the second term, 100 ulps of the matrix norm,
    takes over where the first asks for more than double precision gives.
    The vector comes from one inverse-iteration solve at a shift a few ulps
    below the minimum, placed by a Laguerre climb; the solve's own pivots
    certify the shift.  Its uniform start has norm at most 2^c,
    c = max(e - 52, -1000) with e as in ``_climb``, and the solve
    grows it by at most 1/(lam - s), which ``_climb`` bounds by 2^(103 - e):
    the iterate stays below 2^(c + 103 - e), that is 2^51 until the clamp
    binds and 2^74 at e = -971, and below 2^(1074 - 1000) = 2^74 where
    eps*w underflows.  So it stays below about 2^74 at any coupling, while
    the clamp keeps the start normal where |b| is subnormal.  The climb's
    steps see only the rows 0..W-1 of the half past which Parlett's ratio
    bound puts the ground state below eps^2; the solve that certifies the
    shift, the vector and its residual use every row.  The pair's ``s`` is
    that shift (0 where b = 0 or N = 0, with no solve).
    Raises :class:`EigenConvergenceError` if no certified shift is found or
    the solve's residual misses the contract.
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

    # T - shift I is a nonsingular M-matrix: the one solve that certifies
    # the shift, from a uniform start of norm 2^c at most, keeps the iterate
    # below about 2^74
    s, y, rows = _climb(darr[half_len:].tolist(), b)
    v = np.array(y[:0:-1] + y)
    v /= math.sqrt(v @ v)
    tv = darr * v
    tv[:-1] += b * v[1:]
    tv[1:] += b * v[:-1]
    lam = float(v @ tv)
    r = tv - lam * v
    res = math.sqrt(r @ r)
    if not res <= _residual_bound(lam, scale):
        raise EigenConvergenceError(f"inverse iteration missed the residual bound at {res:.3e}")
    v.setflags(write=False)
    return EigenPair(lam, v, res, s, rows)


def form_slope(pair: EigenPair, offdiag, form) -> float:
    """d(x'Bx)/d(lambda1) at the ground state x of A - lambda1*B, for the
    ``pair`` solved at ``offdiag`` = -lambda1/2 < 0 on N >= 1 and its lag-one
    form ``form`` = x'Bx: 2 r'(T - lam)^+ r with r = Bx - form*x (Kato,
    Perturbation Theory for Linear Operators, ch. II).  One Thomas solve at
    the pair's certified shift s gives (T - s)^-1 r, whose part along x,
    the rounding of r'x over lam - s, is projected out.  r, from each row's
    neighbours, and the solve take only the rows 0..W+1 of the even half,
    W the pair's window: past it x, r and y are below eps^2, and the
    solve's pivots are a prefix of those that certified s."""
    v = pair.vector
    n = v.size // 2
    m = min(pair._rows + 2, n + 1)
    x = v[n:n + m]
    right = v[n + 1:n + m + 1]  # one short where m = N+1: row N+1 is off the grid
    r = 0.5 * v[n - 1:n + m - 1]
    r[:right.size] += 0.5 * right
    r -= form * x
    d = _k2_grid(n)[n:n + m].tolist()
    y = np.array(_solve(d, offdiag, pair.s, r.tolist()))
    # the full grid's inner products, on the half: weights (1, 2, 2, ...)
    y[1:] *= 2.0
    rx = 2.0 * float(r @ x) - float(r[0] * x[0])
    return 2.0 * (float(r @ y) - float(x @ y) * rx)  # y less its part along x
