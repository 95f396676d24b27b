"""Ground eigenpairs of symmetric tridiagonal matrices.

The matrices handled here have an arbitrary real diagonal and a constant
off-diagonal b <= 0, the sign of the coupling -lambda1/2 in every pencil
A - lambda1*B the designer and the Mathieu evaluator solve.  The smallest
eigenvalue is located by bisection on a yes/no Sturm test: the shifted
LDL^T recurrence

    p_1 = d_1 - s,    p_i = d_i - s - b^2 / p_{i-1}

has as many negative pivots as there are eigenvalues below the shift s,
so the matrix has an eigenvalue below s exactly when some pivot is
negative, and the test stops at the first pivot <= 0 (a zero pivot counts
as negative).  Bisecting on that answer brackets the minimum to width
1e-12 inside the Gershgorin interval.  As each pivot is a chain of
correctly rounded operations monotone in s, the computed verdict is
monotone in s (Demmel, Dhillon and Ren, ETNA 1995), so mids below a no or
above a yes need no test.  Laguerre steps on the same recurrence, each a
certified no, climb cubically to the minimum without passing it (Li and
Zeng, SIAM J. Sci. Comput. 1994) and tests just above add a yes: the plain
bracket comes out bit for bit after about 4 steps and 3 tests, not 54.
The eigenvector then comes from inverse iteration with the shift placed
strictly below the bracket.  With b <= 0 the shifted matrix is an
M-matrix with an entrywise positive inverse: Thomas elimination meets no
cancellation and the iterates, started from a positive vector, stay
positive in floating point, so the ground state needs no sign fix-up.

Every grid k = -N..N has a diagonal of odd length equal to its reverse.
There the ground state is even (the unique positive eigenvector of a
matrix that commutes with the reversal), so it is solved on the rows
k = 0..N alone and mirrored: the parity fold.  On that half only row 0
changes.  It couples to v_1 and to v_-1 = v_1, so its upper coupling is
2b, as in (a - 4)A_2 - q(A_4 + 2A_0) = 0 for the Mathieu coefficients
(DLMF 28.4.5), and the first product in the recurrence above is 2 b^2.
The half's eigenvalues are among the full grid's, so the bracket starts
from the full grid's Gershgorin interval.  The residual is still taken on
all 2N+1 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EigenPair", "EigenConvergenceError", "min_eigenpair"]

_MAX_BISECT = 300
_MAX_SEED = 8
_BRACKET_WIDTH = 1e-12
_MAX_SOLVES = 50
_EPS = np.finfo(float).eps


class EigenConvergenceError(RuntimeError):
    """Inverse iteration failed to reach the residual target."""


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue/eigenvector pair with its 2-norm residual."""

    value: float
    vector: np.ndarray
    residual: float


def _has_eigenvalue_below(d, b2, shift, b2_first=None):
    """Whether tridiag(d, b) has an eigenvalue strictly below ``shift``;
    ``b2_first`` replaces b^2 as the first coupling product."""
    piv = d[0] - shift
    if piv <= 0.0:
        return True
    t = b2 if b2_first is None else b2_first
    for di in d[1:]:
        piv = di - shift - t / piv
        if piv <= 0.0:
            return True
        t = b2
    return False


def _laguerre_step(d, b2, s, b2_first=None):
    """Laguerre's step from ``s`` toward the minimum, from the sums of
    1/(lam_j - s) and 1/(lam_j - s)^2, which the pivots' -p'/p and -p''/p
    build up; None where ``_has_eigenvalue_below(d, b2, s, b2_first)``
    holds."""
    piv = d[0] - s
    if piv <= 0.0:
        return None
    g, h = 1.0 / piv, 0.0
    s1, s2 = g, g * g
    c2 = b2 if b2_first is None else b2_first
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


def _bracket_min(d, b, b2_first=None):
    """Bracket the smallest eigenvalue to width <= 1e-12, testing only mids
    strictly between the certified no ``below`` and yes ``above``.  Seeding
    ends at a Laguerre step that is no finite advance inside the interval.
    With ``b2_first`` = 2b^2, ``d`` is the even half k = 0..N of an odd
    palindrome, whose spectrum lies in the full grid's Gershgorin interval,
    which is the one taken here in both cases."""
    b2 = b * b
    r = 2.0 * abs(b)
    lo = min(d) - r
    hi = max(d) + r
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    lo -= pad
    hi += pad
    below, above, x = -math.inf, math.inf, lo
    for _ in range(_MAX_SEED):
        step = _laguerre_step(d, b2, x, b2_first)
        if step is None:
            above = x
            break
        below = x
        if not below < x + step < hi:
            break
        x += step
        if step <= 1e-6 * (abs(x) + r):  # cubic convergence: x is within rounding
            break
    w = _EPS * (abs(x) + r)
    for _ in range(_MAX_SEED):
        t = x + w if x + w < above else x - w
        if t <= below:
            break
        below, above = (below, t) if _has_eigenvalue_below(d, b2, t, b2_first) else (t, above)
        w *= 2.0
    for _ in range(_MAX_BISECT):
        if hi - lo <= _BRACKET_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        elif _has_eigenvalue_below(d, b2, mid, b2_first):
            hi = above = mid
        else:
            lo = below = mid
    return lo, hi


def _residual_bound(value, scale):
    """Residual norm an eigenpair of value ``value`` must meet.

    The contract is 1e-10 * (1 + |value|) unless the matrix norm ``scale``
    makes that tighter than 100 ulps of ||T||, which double precision
    cannot beat; then the ulp floor 100 * eps * scale applies.
    """
    return max(1e-10 * (1.0 + abs(value)), 100.0 * _EPS * scale)


def _apply(darr, off, v):
    out = darr * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def min_eigenpair(diag, offdiag) -> EigenPair:
    """Smallest eigenvalue and unit eigenvector of tridiag(diag, offdiag).

    ``offdiag`` must be <= 0 (raises ``ValueError`` otherwise).  Then the
    shifted matrix that inverse iteration factors is an M-matrix, so the
    returned vector is entrywise nonnegative with no sign fix-up.  Where
    ``diag`` has odd length 2N+1 and equals its reverse, as on every grid
    k = -N..N, the ground state is even (the unique positive vector of a
    matrix that commutes with the reversal), so it is solved on the rows
    k = 0..N alone and mirrored: the returned vector equals its reverse
    bit for bit.  The residual contract, always checked on all rows, is
    ``max(1e-10 * (1 + |value|), 100 * eps * ||T||)`` with
    ||T|| = max|diag| + 2|offdiag| (``_residual_bound``): the second term,
    100 ulps of the matrix norm, takes over where the first asks for more
    than double precision gives.  Raises :class:`EigenConvergenceError` if
    inverse iteration cannot meet it within 50 solves.
    """
    d = np.asarray(diag, dtype=float).tolist()
    n = len(d)
    b = float(offdiag)
    if b > 0.0:
        raise ValueError(f"offdiag must be <= 0, got {b!r}")
    if b == 0.0 or n == 1:
        i = int(np.argmin(d))
        vec = np.zeros(n)
        vec[i] = 1.0
        return EigenPair(d[i], vec, 0.0)

    scale = max(max(d), -min(d)) + 2.0 * abs(b)  # max|d| + 2|b|
    darr = np.array(d)
    # Parity fold: on the even half, row 0 couples to v_1 and v_-1 = v_1,
    # so its upper coupling is 2b and the first coupling product 2b^2.
    fold = n % 2 == 1 and d == d[::-1]
    if fold:
        d = d[n // 2:]
    k = len(d)
    b0 = 2.0 * b if fold else b
    lo, hi = _bracket_min(d, b, b0 * b if fold else None)

    # Shift strictly below the minimum: T - shift I is a nonsingular M-matrix.
    shift = lo - max(hi - lo, 4.0 * _EPS * scale)

    # Thomas factorization of (T - shift I); pivots p stay positive.
    p = [d[0] - shift]
    m = []
    c = b0
    for di in d[1:]:
        m.append(b / p[-1])
        p.append(di - shift - c * m[-1])
        c = b

    def solve(u):
        y = u.tolist()
        for i in range(1, k):
            y[i] -= m[i - 1] * y[i - 1]
        y[k - 1] /= p[k - 1]
        for i in range(k - 2, 0, -1):
            y[i] = (y[i] - b * y[i + 1]) / p[i]
        y[0] = (y[0] - b0 * y[1]) / p[0]
        return np.array(y)

    u = np.full(k, 1.0 / np.sqrt(n))
    best = None
    prev = np.inf
    for it in range(1, _MAX_SOLVES + 1):
        v = solve(u)
        if fold:
            v = np.concatenate((v[:0:-1], v))
        v /= np.linalg.norm(v)
        tv = _apply(darr, b, v)
        lam = float(v @ tv)
        res = float(np.linalg.norm(tv - lam * v))
        if best is None or res < best[2]:
            best = (lam, v, res, it)
        if res <= 0.5 * _residual_bound(lam, scale):
            break
        if it >= 3 and res >= 0.9 * prev:
            break  # at the rounding floor; keep the best iterate
        prev = res
        u = v[n - k:]
    lam, v, res, it = best
    if res > _residual_bound(lam, scale):
        raise EigenConvergenceError(
            f"inverse iteration stalled at residual {res:.3e} after {it} solves"
        )
    v.setflags(write=False)
    return EigenPair(lam, v, res)
