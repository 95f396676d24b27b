"""Shared test oracles.

Everything here is deliberately independent of the package's own
numerics: a dense cyclic-Jacobi eigensolver to check the tridiagonal
bisection kernel against, the plain Sturm bisection and inverse iteration
that the seeded kernel must reproduce bit for bit, and brute-force
quadrature for the frequency moments the closed forms are supposed to
reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from compactseq.sequence import Sequence, dtft, norm2


def tridiag_dense(diag, offdiag) -> np.ndarray:
    d = np.asarray(diag, dtype=float)
    n = d.size
    m = np.diag(d)
    if n > 1:
        idx = np.arange(n - 1)
        m[idx, idx + 1] = offdiag
        m[idx + 1, idx] = offdiag
    return m


def jacobi_eigh(matrix, sweeps: int = 100, tol: float = 1e-14):
    """Cyclic two-sided Jacobi for a symmetric matrix.

    Returns (values ascending, column eigenvectors).  Plain textbook
    rotations; O(n^3) per sweep, fine for the small oracle matrices.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = np.linalg.norm(a) + 1.0
    for _ in range(sweeps):
        off = np.sqrt(2.0 * np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0:
                    t = 1.0 / (theta + np.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + np.sqrt(1.0 + theta * theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                for mat in (a,):
                    colp = mat[:, p].copy()
                    colq = mat[:, q].copy()
                    mat[:, p] = c * colp - s * colq
                    mat[:, q] = s * colp + c * colq
                    rowp = mat[p, :].copy()
                    rowq = mat[q, :].copy()
                    mat[p, :] = c * rowp - s * rowq
                    mat[q, :] = s * rowp + c * rowq
                colp = v[:, p].copy()
                colq = v[:, q].copy()
                v[:, p] = c * colp - s * colq
                v[:, q] = s * colp + c * colq
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


def even_spectrum(diag, offdiag) -> np.ndarray:
    """Eigenvalues, ascending, of the dense tridiag(diag, offdiag) whose
    eigenvectors equal their reverse: the spectrum of the even half that
    ``eigen`` solves on an odd palindromic diagonal with offdiag != 0."""
    w, v = jacobi_eigh(tridiag_dense(diag, offdiag))
    return w[np.max(np.abs(v - v[::-1]), axis=0) <= 1e-8]


def _sturm_yes(d, b2, shift, b2_first):
    piv = d[0] - shift
    if piv <= 0.0:
        return True
    for i in range(1, len(d)):
        t = b2_first if i == 1 else b2
        piv = d[i] - shift - t / piv
        if piv <= 0.0:
            return True
    return False


def bisect_min_reference(d, b, fold=True):
    """Plain Sturm bisection of the Gershgorin interval to width <= 1e-12,
    one test per mid: the bracket the seeded ``eigen._bracket_min`` must
    return bit for bit.  With ``fold``, ``d`` is the even half k = 0..N of
    an odd palindrome, whose first coupling product is 2b^2; ``fold=False``
    bisects tridiag(d, b) itself."""
    b2 = b * b
    b2_first = 2.0 * b2 if fold else b2
    r = 2.0 * abs(b)
    lo = min(d) - r
    hi = max(d) + r
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    lo -= pad
    hi += pad
    for _ in range(300):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _sturm_yes(d, b2, mid, b2_first):
            hi = mid
        else:
            lo = mid
    return lo, hi


def min_eigenpair_reference(diag, offdiag, fold=True):
    """(value, vector, residual) of ``eigen.min_eigenpair`` for offdiag < 0
    and len(diag) > 1, by the plain bisection and a numpy-array Thomas
    solve: the numbers the kernel must reproduce bit for bit.

    With ``fold``, the odd-length palindromic diagonal is solved on its
    even half k = 0..N, whose row 0 has upper coupling 2b (first coupling
    product 2b^2), and the half is mirrored, as the kernel does;
    ``fold=False`` solves on all rows, an independent full-grid answer.
    A matrix with ||T|| < 1 is solved scaled by the power of two 2^e that
    brings ||T|| into [1/2, 1), and the value and residual scaled back."""
    eps = np.finfo(float).eps
    d = [float(v) for v in diag]
    n = len(d)
    b = float(offdiag)
    scale = max(abs(v) for v in d) + 2.0 * abs(b)
    e = -math.frexp(scale)[1] if scale < 1.0 else 0
    d = [math.ldexp(v, e) for v in d]
    b = math.ldexp(b, e)
    scale = math.ldexp(scale, e)
    darr = np.array(d)
    if fold:
        assert n % 2 == 1 and d == d[::-1]
        d = d[n // 2:]
    k = len(d)
    up = np.full(k - 1, b)
    if fold:
        up[0] = 2.0 * b
    lo, hi = bisect_min_reference(d, b, fold)
    shift = lo - max(hi - lo, 4.0 * eps * scale)
    p = np.empty(k)
    p[0] = d[0] - shift
    for i in range(1, k):
        p[i] = d[i] - shift - up[i - 1] * (b / p[i - 1])

    def solve(u):
        y = np.empty(k)
        y[0] = u[0]
        for i in range(1, k):
            y[i] = u[i] - (b / p[i - 1]) * y[i - 1]
        v = np.empty(k)
        v[k - 1] = y[k - 1] / p[k - 1]
        for i in range(k - 2, -1, -1):
            v[i] = (y[i] - up[i] * v[i + 1]) / p[i]
        return np.concatenate((v[:0:-1], v)) if fold else v

    def bound(value):
        return max(1e-10 * (1.0 + abs(value)), 100.0 * eps * scale)

    u = np.full(k, 1.0 / np.sqrt(n))
    best = None
    prev = np.inf
    for it in range(1, 51):
        v = solve(u)
        v /= np.linalg.norm(v)
        tv = darr * v
        tv[:-1] += b * v[1:]
        tv[1:] += b * v[:-1]
        lam = float(v @ tv)
        res = float(np.linalg.norm(tv - lam * v))
        if best is None or res < best[2]:
            best = (lam, v, res)
        if res <= 0.5 * bound(lam):
            break
        if it >= 3 and res >= 0.9 * prev:
            break
        prev = res
        u = v[n - k:]
    lam, v, res = best
    return math.ldexp(lam, -e), v, math.ldexp(res, -e)


def freq_moments_quad(x: Sequence, npts: int = 1 << 16):
    """Trapezoidal (mu_wl, delta_wl2) of |X|^2/(2 pi ||x||^2) on [-pi, pi]."""
    w = np.linspace(-np.pi, np.pi, npts + 1)
    dens = np.abs(dtft(x, w)) ** 2 / (2.0 * np.pi * norm2(x))
    mu = float(np.trapezoid(dens * w, w))
    var = float(np.trapezoid(dens * (w - mu) ** 2, w))
    return mu, var


def trig_moment_quad(x: Sequence, npts: int = 8192) -> complex:
    """(1/2pi||x||^2) int e^{jw} |X|^2 dw by the periodic rectangle rule.

    The integrand is a trigonometric polynomial, so the rule is exact
    once npts exceeds its bandwidth.
    """
    w = -np.pi + 2.0 * np.pi * np.arange(npts) / npts
    vals = np.exp(1j * w) * np.abs(dtft(x, w)) ** 2
    return complex(np.mean(vals) / norm2(x))


def random_sequences(rng: np.random.Generator, count: int, max_len: int = 12):
    """Reproducible stream of random complex sequences (some sparse)."""
    out = []
    for _ in range(count):
        length = int(rng.integers(2, max_len + 1))
        taps = rng.normal(size=length) + 1j * rng.normal(size=length)
        if rng.random() < 0.25:
            taps[rng.integers(0, length)] = 0.0
        if rng.random() < 0.2:
            taps = taps.real.astype(complex)
        if not np.any(taps != 0):
            taps[0] = 1.0
        out.append(Sequence(taps, int(rng.integers(-8, 9))))
    return out
