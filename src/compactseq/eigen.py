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


def _has_eigenvalue_below(d, b2, shift):
    """Whether tridiag(d, b) has an eigenvalue strictly below ``shift``."""
    piv = d[0] - shift
    if piv <= 0.0:
        return True
    for i in range(1, len(d)):
        piv = d[i] - shift - b2 / piv
        if piv <= 0.0:
            return True
    return False


def _laguerre_step(d, b2, s):
    """Laguerre's step from ``s`` toward the minimum, from the sums of
    1/(lam_j - s) and 1/(lam_j - s)^2, which the pivots' -p'/p and -p''/p
    build up; None where ``_has_eigenvalue_below(d, b2, s)`` holds."""
    piv = d[0] - s
    if piv <= 0.0:
        return None
    g, h = 1.0 / piv, 0.0
    s1, s2 = g, g * g
    for di in d[1:]:
        t = b2 / piv
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


def _bracket_min(d, b):
    """Bracket the smallest eigenvalue to width <= 1e-12, testing only mids
    strictly between the certified no ``below`` and yes ``above``.  Seeding
    ends at a Laguerre step that is no finite advance inside the interval."""
    b2 = b * b
    r = 2.0 * abs(b)
    lo = min(d) - r
    hi = max(d) + r
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    lo -= pad
    hi += pad
    below, above, x = -math.inf, math.inf, lo
    for _ in range(_MAX_SEED):
        step = _laguerre_step(d, b2, x)
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
        below, above = (below, t) if _has_eigenvalue_below(d, b2, t) else (t, above)
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
        elif _has_eigenvalue_below(d, b2, mid):
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
    returned vector is entrywise nonnegative with no sign fix-up.  The
    residual contract is
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

    lo, hi = _bracket_min(d, b)
    scale = max(abs(v) for v in d) + 2.0 * abs(b)

    # Shift strictly below the minimum: T - shift I is a nonsingular M-matrix.
    shift = lo - max(hi - lo, 4.0 * _EPS * scale)
    darr = np.array(d)

    # Thomas factorization of (T - shift I); pivots p stay positive.
    p = [d[0] - shift]
    m = []
    for di in d[1:]:
        m.append(b / p[-1])
        p.append(di - shift - b * m[-1])

    def solve(u):
        y = u.tolist()
        for i in range(1, n):
            y[i] -= m[i - 1] * y[i - 1]
        y[n - 1] /= p[n - 1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - b * y[i + 1]) / p[i]
        return np.array(y)

    u = np.full(n, 1.0 / np.sqrt(n))
    best = None
    prev = np.inf
    for it in range(1, _MAX_SOLVES + 1):
        v = solve(u)
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
        u = v
    lam, v, res, it = best
    if res > _residual_bound(lam, scale):
        raise EigenConvergenceError(
            f"inverse iteration stalled at residual {res:.3e} after {it} solves"
        )
    v.setflags(write=False)
    return EigenPair(lam, v, res)
