"""Shared test oracles.

Everything here is deliberately independent of the package's own
numerics, which it takes only the ``Sequence`` container from: a dense
cyclic-Jacobi eigensolver and a dense ground pair of the even half to
check the tridiagonal kernel against, the yes/no Sturm test its shift
must pass, the ground state's tail from its ratio recurrence, the DTFT
by direct summation and brute-force quadrature for the frequency moments the
closed forms are supposed to reproduce, the
normalized autocorrelation from one ``np.correlate`` and the linear
frequency moments its closed forms give,
McLachlan's large-q series for a0 and its three-term ceiling, a0's
small-q series and Pade approximants in exact rational arithmetic, a0 to
40 digits in decimal arithmetic, the
three-tap probe's closed-form spread product, a line-by-line parser
of the sequence text format, the per-tap writers of a design's JSON
line and of the sequence text format, and a row-by-row CSV writer.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from compactseq.sequence import Sequence


def indices(x: Sequence) -> np.ndarray:
    """Time indices of the stored taps (``offset .. offset+len-1``), as
    int64: an offset beyond that range raises ``OverflowError``."""
    return x.offset + np.arange(len(x))


def norm2(x: Sequence) -> float:
    """Squared l2 norm, sum of |x_k|^2."""
    return float(np.sum(np.abs(x.taps) ** 2))


def shift(x: Sequence, m: int) -> Sequence:
    """Delay by m samples: tap values unchanged, indices moved to k+m."""
    return Sequence(x.taps, x.offset + int(m))


def modulus(x: Sequence) -> Sequence:
    """Entrywise modulus |x_k| at the same indices."""
    return Sequence(np.abs(x.taps), x.offset)


def dtft(x: Sequence, omegas) -> np.ndarray:
    """Discrete-time Fourier transform X(e^{jw}) = sum_k x_k e^{-jwk}.

    Evaluated by direct summation at the requested frequencies, which keeps
    the offset exact and puts no constraint on the grid.  Returns a complex
    array of the same shape as ``omegas`` (or a scalar-shaped array for a
    scalar input).
    """
    w = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    k = indices(x)
    out = np.exp(-1j * np.outer(w, k)) @ x.taps
    return out.reshape(np.shape(omegas)) if np.shape(omegas) else out[0]


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
                apq = float(a[p, q])
                if abs(apq) <= 1e-300:
                    continue
                # Python floats and hypot: theta^2 must not overflow
                theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                t = math.copysign(1.0 / (abs(theta) + math.hypot(1.0, theta)), theta)
                c = 1.0 / math.hypot(1.0, t)
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
    eigenvectors equal their reverse, for an odd palindromic ``diag``: the
    spectrum of the even half that ``eigen`` solves, from a dense solve of
    its symmetric form, rows k = 0..N with couplings sqrt(2) b, b, ...  An
    even/odd pair, however nearly degenerate, cannot mix there as it can in
    a dense solve of the full matrix."""
    d = np.asarray(diag, dtype=float)
    half = d[d.size // 2:]
    off = np.full(half.size - 1, float(offdiag))
    off[:1] *= math.sqrt(2.0)
    return jacobi_eigh(np.diag(half) + np.diag(off, 1) + np.diag(off, -1))[0]


def has_eigenvalue_below(d, b2, shift):
    """Whether the even half ``d`` (rows k = 0..N of an odd palindromic
    diagonal, off-diagonal b with b^2 = ``b2``) has an eigenvalue strictly
    below ``shift``: the yes/no Sturm test, whose LDL^T pivots
    p_0 = d_0 - s, p_1 = d_1 - s - 2b^2/p_0, p_i = d_i - s - b^2/p_{i-1}
    count the eigenvalues below s by their negative signs; it stops at the
    first pivot <= 0 (a zero pivot counts as negative)."""
    piv = d[0] - shift
    if piv <= 0.0:
        return True
    t = 2.0 * b2
    for di in d[1:]:
        piv = di - shift - t / piv
        if piv <= 0.0:
            return True
        t = b2
    return False


def even_ground_pair(diag, offdiag, eigh=jacobi_eigh):
    """(value, vector) of the ground state of tridiag(diag, offdiag) for an
    odd palindromic ``diag`` and offdiag < 0, from a dense solve of its even
    half: rows k = 0..N with couplings sqrt(2) b, b, ..., symmetric and
    similar to the half ``eigen`` solves.  ``eigh`` is the dense solver
    (``jacobi_eigh`` or ``np.linalg.eigh``); the matrix is scaled by a power
    of two to ||T|| in [1/2, 1) for it, as Jacobi's stopping test is
    absolute.  The vector is mirrored onto k = -N..N and has unit norm."""
    d = np.asarray(diag, dtype=float)
    n = d.size
    half = d[n // 2:]
    e = -math.frexp(float(np.max(np.abs(d))) + 2.0 * abs(offdiag))[1]
    off = np.full(half.size - 1, math.ldexp(offdiag, e))
    off[0] *= math.sqrt(2.0)
    w, v = eigh(np.diag(np.ldexp(half, e)) + np.diag(off, 1) + np.diag(off, -1))
    x = np.abs(v[:, 0])
    x[0] *= math.sqrt(2.0)
    x = np.concatenate((x[:0:-1], x))
    return math.ldexp(float(w[0]), -e), x / np.linalg.norm(x)


def log_amplitudes(half, offdiag, lam):
    """log v_j - log max v over the rows of the even half, for the ground
    state at the value ``lam``, from the backward ratio recurrence
    r_j = v_{j+1}/v_j = |b| / (d_{j+1} - lam - |b| r_{j+1}), r_N = 0: each
    row j >= 1 reads (d_j - lam) v_j = |b| (v_{j-1} + v_{j+1}).  It is
    stable for the positive ground state, whose ratios are positive, and
    resolves tails far below what a dense eigenvector does."""
    a = abs(offdiag)
    r, logr = 0.0, []
    for dj in half[:0:-1]:
        r = a / (dj - lam - a * r)
        logr.append(math.log(r))
    logv = np.concatenate(([0.0], np.cumsum(logr[::-1])))
    return logv - logv.max()


def freq_moments_quad(x: Sequence, npts: int = 1 << 16):
    """Trapezoidal (mu_wl, delta_wl2) of |X|^2/(2 pi ||x||^2) on [-pi, pi]."""
    w = np.linspace(-np.pi, np.pi, npts + 1)
    # the DTFT in blocks of frequencies keeps a long sequence's matrix small
    spec = np.concatenate([dtft(x, w[i:i + 1024]) for i in range(0, w.size, 1024)])
    dens = np.abs(spec) ** 2 / (2.0 * np.pi * norm2(x))
    mu = float(np.trapezoid(dens * w, w))
    var = float(np.trapezoid(dens * (w - mu) ** 2, w))
    return mu, var


def rho_reference(x: Sequence) -> np.ndarray:
    """rho_m = r_m / r_0 for m = 1..len-1 from one ``np.correlate`` of the
    taps scaled to max|x_k| = 1, whose lag m is sum_k x_{k+m} conj(x_k),
    that is conj(r_m)."""
    t = x.taps / np.max(np.abs(x.taps))
    r = np.correlate(t, t, "full")[len(t):]
    return np.conj(r) / np.sum(np.abs(t) ** 2)


def linear_moments_reference(x: Sequence):
    """(mu_wl, delta_wl2) from ``rho_reference`` by the closed forms

        mu_wl = 2 sum_m (-1)^m Im(rho_m) / m,
        delta_wl2 = pi^2/3 + 4 sum_m (-1)^m Re(rho_m) / m^2 - mu_wl^2.
    """
    rho = rho_reference(x)
    m = np.arange(1, len(x), dtype=float)
    sign = np.where(np.arange(1, len(x)) % 2, -1.0, 1.0)
    mu = float(2.0 * np.sum(sign * rho.imag / m))
    return mu, float(math.pi**2 / 3.0 + 4.0 * np.sum(sign * rho.real / m**2) - mu * mu)


def trig_moment_quad(x: Sequence, npts: int = 8192) -> complex:
    """(1/2pi||x||^2) int e^{jw} |X|^2 dw by the periodic rectangle rule.

    The integrand is a trigonometric polynomial, so the rule is exact
    once npts exceeds its bandwidth.
    """
    w = -np.pi + 2.0 * np.pi * np.arange(npts) / npts
    vals = np.exp(1j * w) * np.abs(dtft(x, w)) ** 2
    return complex(np.mean(vals) / norm2(x))


MCLACHLAN_Q_MIN = 4.0

# Coefficients of the large-q series for a0, by descending half-power of q.
_A0_SERIES = (
    -1.0 / 32.0,        # q^{-1/2}
    -48.0 / 2.0**12,    # q^{-1}
    -848.0 / 2.0**17,   # q^{-3/2}
    -4752.0 / 2.0**20,  # q^{-2}
    -126752.0 / 2.0**25,  # q^{-5/2}
)


def mclachlan_a0(q: float) -> float:
    """Truncated large-q series for the lowest characteristic value a0(q)
    of y'' + (a - 2 q cos(2 theta)) y = 0 (McLachlan; DLMF 28.8.1).

    Only meaningful for q >= 4 (raises below); the first omitted term is
    about 0.004 q^-3, so it is 4e-9 from a0 at q = 100 and 4e-12 at 1e3.
    """
    q = float(q)
    if q < MCLACHLAN_Q_MIN:
        raise ValueError(f"series needs q >= {MCLACHLAN_Q_MIN}")
    rq = math.sqrt(q)
    total = -2.0 * q + 2.0 * rq - 0.25
    power = 1.0 / rq
    for coeff in _A0_SERIES:
        total += coeff * power
        power /= rq
    return total


def a0_upper_bound(q: float) -> float:
    """Three-term ceiling -2q + 2 sqrt(q) - 1/4 for a0(q), q > 0."""
    q = float(q)
    return -2.0 * q + 2.0 * math.sqrt(q) - 0.25


def a0_small_q_series(terms: int) -> list[Fraction]:
    """The first ``terms`` coefficients c_j of a0(q) = sum c_j q^(2j),
    j >= 1, exactly, order by order in q from the recurrence of DLMF 28.4.5
    for the cosine coefficients A_2m of ce0 (A_0 = 1):

        a A_0 = q A_2,  (a - 4) A_2 = q (2 A_0 + A_4),
        (a - 4m^2) A_2m = q (A_2m-2 + A_2m+2),  m >= 2.

    A_2m starts at q^m, so the q^n coefficient of A_2m follows from those
    of lower order, and the q^n coefficient of a is the q^(n-1) one of A_2.
    """
    top = 2 * terms
    a = [Fraction(0)] * (top + 1)
    coef = {(0, 0): Fraction(1)}  # (m, n): the q^n coefficient of A_2m

    def at(m, n):
        return coef.get((m, n), Fraction(0))

    for n in range(1, top + 1):
        a[n] = at(1, n - 1)
        for m in range(1, n + 1):
            s = sum((a[k] * at(m, n - k) for k in range(1, n - m + 1)), Fraction(0))
            s -= (2 if m == 1 else 1) * at(m - 1, n - 1) + at(m + 1, n - 1)
            coef[(m, n)] = s / (4 * m * m)
    return a[2::2]


def a0_reference(q) -> Decimal:
    """a0(q) to 40 digits, by Newton's method in 60-digit decimal arithmetic
    on the characteristic equation that the recurrence of DLMF 28.4.5 gives
    as a continued fraction,

        F(a) = a - 2q^2 / D_1 = 0,  D_m = a - 4m^2 - q^2 / D_(m+1),

    truncated at D_M = a - 4M^2, where M is a few rows past the one at
    which Parlett's ratio bound puts the cosine coefficients below 1e-50.
    F rises between its poles, the smallest of which lies above a0, and
    F' = 1 + 2q^2 D_1' / D_1^2 with D_m' = 1 + q^2 D_(m+1)' / D_(m+1)^2.
    Newton starts from LAPACK's smallest eigenvalue of the same rows in
    double precision, 4m^2 on the diagonal with couplings sqrt(2) q, q, ...,
    or above q = 1e4, where those rows grow past a hundred, from
    ``mclachlan_a0``, which is closer still there.  A ``Decimal`` q is
    used exactly, so that a table can be built at nodes that are not
    doubles; a float is read as the exact value it holds.
    """
    qd = abs(Decimal(q))
    q = float(qd)
    if q == 0.0:
        return Decimal(0)
    m, amp = math.isqrt(int(q / 2.0)) + 1, 1.0  # rows k with k^2 > q/2 = 2|b|
    while amp > 1e-50:
        amp *= (q / 4.0) / (m * m - q / 4.0)
        m += 1
    top = m + 4
    if q > 1e4:
        a = mclachlan_a0(q)
    else:
        off = np.full(top, -q)
        off[0] *= math.sqrt(2.0)
        diag = 4.0 * np.arange(top + 1, dtype=float) ** 2
        a = float(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0])
    with localcontext() as ctx:
        ctx.prec = 60
        q2 = qd * qd
        x = Decimal(a)
        for _ in range(20):
            d, dp = x - 4 * top * top, Decimal(1)
            for j in range(top - 1, 0, -1):
                d, dp = x - 4 * j * j - q2 / d, 1 + q2 * dp / (d * d)
            step = (x - 2 * q2 / d) / (1 + 2 * q2 * dp / (d * d))
            x -= step
            if abs(step) <= Decimal("1e-45") * (abs(x) + qd):
                return +x
    raise ArithmeticError(f"Newton's method for a0({q!r}) did not converge")


def pade(series, m: int, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """Numerator and denominator of the [m/n] Pade approximant of the power
    series ``series`` (m + n + 1 exact terms, lowest power first), lowest
    power first, with the denominator's constant term 1: the series times
    the denominator agrees with the numerator through the power m + n."""
    # the powers m+1 .. m+n of series * den vanish: solve for den[1..n]
    rows = [[series[k - j] if k >= j else Fraction(0) for j in range(1, n + 1)] + [-series[k]]
            for k in range(m + 1, m + n + 1)]
    for i in range(n):  # Gauss-Jordan, exact
        piv = next(r for r in range(i, n) if rows[r][i] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        for r in range(n):
            if r != i and rows[r][i] != 0:
                f = rows[r][i] / rows[i][i]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
    den = [Fraction(1)] + [rows[i][n] / rows[i][i] for i in range(n)]
    num = [sum((den[j] * series[k - j] for j in range(min(k, n) + 1)), Fraction(0))
           for k in range(m + 1)]
    return num, den


def three_tap_eta_p(eps: float) -> float:
    """Closed form eta_p of the three-tap probe: 1/(2(1-2eps^2)) - 2eps^2."""
    eps = float(eps)
    return 1.0 / (2.0 * (1.0 - 2.0 * eps * eps)) - 2.0 * eps * eps


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


def parse_sequence_reference(text: str) -> Sequence:
    """The sequence text format read one line at a time: blank lines are
    skipped, ``#`` lines are comments of which ``# offset=<int>`` sets the
    offset (the last one wins), and every other line is one tap, ``re`` or
    ``re im``, each token read by ``float``."""
    offset = 0
    taps = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("offset="):
                offset = int(body[len("offset="):])
            continue
        parts = line.split()
        if len(parts) == 1:
            taps.append(complex(float(parts[0]), 0.0))
        elif len(parts) == 2:
            taps.append(complex(float(parts[0]), float(parts[1])))
        else:
            raise ValueError(f"bad sequence line: {raw!r}")
    if not taps:
        raise ValueError("no taps found")
    return Sequence(np.array(taps), offset)


def design_json_reference(res) -> str:
    """A design record's JSON line from one ``json.dumps`` of its fields in
    order, every tap formatted: NaN is null, an infinity the string "inf" or
    "-inf", and the sequence the object {"offset", "taps": real taps}."""
    def value(v):
        if isinstance(v, Sequence):
            return {"offset": v.offset, "taps": v.taps.real.tolist()}
        if isinstance(v, float) and not math.isfinite(v):
            return None if math.isnan(v) else repr(v)
        return v

    return json.dumps({f.name: value(getattr(res, f.name)) for f in fields(res)}) + "\n"


def sequence_text_reference(x: Sequence) -> str:
    """The sequence text format written one tap at a time: the offset
    header, then one ``re im`` line per tap, each part's repr with -0.0
    written as 0.0."""
    lines = [f"# offset={x.offset}"]
    lines += [f"{float(t.real) + 0.0!r} {float(t.imag) + 0.0!r}" for t in x.taps]
    return "\n".join(lines) + "\n"


def csv_reference(header: str, columns) -> str:
    """CSV text joined row by row: ``header``, then each row's cells joined
    by commas, strings as is and other cells as floats (None is nan) with
    repr."""
    cells = [
        col if isinstance(col[0], str) else map(repr, np.asarray(col, dtype=float).tolist())
        for col in columns
    ]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"
