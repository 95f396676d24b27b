"""Time and frequency spread measures for finite sequences.

``measure`` evaluates every measure of a sequence, given as a ``Sequence``
or as a float64 array of real taps at k = 0..len-1, in one pass and
returns them as a ``SpreadReport``.  Everything comes from two vectors:

* the tap-energy weights w_k = |x_k|^2 / ||x||^2, whose mean and variance
  are the time center mu_n and the time spread delta_n2, and
* the normalized autocorrelation rho_m = r_m / r_0 for m = 1..len-1,
  divided by r_0 componentwise, which gives both spreads of the
  2*pi-periodic spectrum X(e^{jw}).  Below 416 real or 224 complex taps
  it comes from one ``np.correlate`` of the taps with themselves, whose
  lag m is conj(r_m), so the imaginary part is negated; from those
  lengths on, where that O(len^2) correlation is the slower, from |F|^2
  of the transform F of the taps zero-padded to a power of two
  L >= 2 len - 1 (Wiener-Khinchin, no lag wraps around): ``irfft`` for
  real taps, so rho stays exactly real, and for complex taps the
  forward ``rfft`` of the real |F|^2, which gives L r_m with no
  conjugate.  Each transformed lag is off by about eps r_0 log L, and
  the weights 1/m and 1/m^2 below keep that near the eps pi^2/3 floor
  that the cancellation in delta_wl2 already sets.  A sequence with one
  nonzero tap, whose every lag is exactly 0, gets rho = 0 with no
  transform.  From rho come:

  - the periodic spread ``delta_wp2 = (1 - |tau|^2) / |tau|^2`` built from
    the first trigonometric moment ``tau = rho_1``, taken from the lag-one
    sum of ``sequence.autocorrelation`` (a circular-variance style
    measure, infinite when tau vanishes), and
  - the linear center mu_wl and spread ``delta_wl2``, the mean and the
    second central moment of |X|^2/(2*pi*||x||^2) over one period
    [-pi, pi).  The integral definitions are recovered term by term using

        (1/2pi) int w e^{-jwm} dw   = j(-1)^m / m,
        (1/2pi) int w^2 e^{-jwm} dw = 2(-1)^m / m^2   (pi^2/3 at m = 0),

    so no quadrature is involved.

The products ``eta_p = delta_n2*delta_wp2`` and ``eta_l = delta_n2*delta_wl2``
are the two time-frequency spread products; eta_p is bounded below by 1/4
whenever the sequence has more than one nonzero tap, while eta_l can drop
below 1/4.

``measure(x, linear=False)`` skips rho and the lag sums: mu_wl, delta_wl2
and eta_l are then None, and every other field is bit for bit the one
``measure(x)`` gives.  The window scan, which keeps only delta_wp2,
delta_n2 and eta_p, measures that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequence import Sequence, _peak, autocorrelation

__all__ = ["SpreadReport", "measure"]

_TINY = np.finfo(float).tiny
_MAX_EXPONENT = 256
# the lengths from which _rho takes the lags from transforms, where they
# are timed faster than np.correlate (CHANGES.md)
_FFT_REAL = 416
_FFT_COMPLEX = 224


def _rho(t: np.ndarray, r0: float, real: bool) -> np.ndarray:
    """Normalized autocorrelation taps rho_m = r_m / r_0 for m = 1..len-1.

    ``t`` holds the taps, float64 where they are real (``real``).  Below
    ``_FFT_REAL`` real taps or ``_FFT_COMPLEX`` complex taps one
    correlation gives every lag: numpy's ``correlate(t, t)`` at lag m is
    sum_k x_{k+m} conj(x_k) = conj(r_m), hence the sign of the imaginary
    part.  From those lengths on (timed in CHANGES.md), the lags come from
    |F|^2, F the transform of the taps zero-padded to the power of two
    L >= 2 len - 1, so that no lag wraps around: real taps take
    ``irfft(|rfft|^2)``, which is real, and complex taps ``rfft(|fft|^2)``.
    For the real |F|^2 that forward transform at m is L times the
    conjugate of the inverse one, conj(conj(r_m)) = r_m, so the sign needs
    no flip and L joins r_0 in the divisor.  Each lag is then off by about
    eps r_0 log L instead of eps r_0; with one nonzero tap every r_m is
    exactly 0, so rho is returned as 0 without a transform.  Real taps
    give a real rho.  The division is taken componentwise, which keeps a
    zero imaginary part exactly zero.
    """
    n = t.size
    if n < (_FFT_REAL if real else _FFT_COMPLEX):
        r = np.correlate(t, t, "full")[n:]
        return r / r0 if real else r.real / r0 - 1j * (r.imag / r0)
    if np.count_nonzero(t) <= 1:
        return np.zeros(n - 1)
    size = 1 << (2 * n - 2).bit_length()
    if real:
        f = np.fft.rfft(t, size)
        return np.fft.irfft(f.real**2 + f.imag**2, size)[1:n] / r0
    f = np.fft.fft(t, size)
    r = np.fft.rfft(f.real**2 + f.imag**2)[1:n]
    r0 *= size
    return r.real / r0 + 1j * (r.imag / r0)


@dataclass(frozen=True)
class SpreadReport:
    """All spread measures of one sequence.

    ``eta_p`` is None exactly when the sequence has a single nonzero tap
    (degenerate 0 * inf product).  ``mu_wl``, ``delta_wl2`` and ``eta_l``
    are None exactly when it was measured with ``linear=False``.
    ``mu_wp = 1 - tau`` is the periodic frequency center; ``analyze
    --format json`` prints it, the CSV form leaves it out.
    """

    mu_n: float
    delta_n2: float
    tau: complex
    delta_wp2: float
    mu_wl: float | None
    delta_wl2: float | None
    eta_p: float | None
    eta_l: float | None
    mu_wp: complex


def measure(x: Sequence | np.ndarray, *, linear: bool = True) -> SpreadReport:
    """Evaluate every spread measure of ``x``, or with ``linear=False``
    all but the linear ones.

    ``x`` is a ``Sequence`` or a 1-d float64 array of real taps at
    k = 0..len-1, measured as its ``Sequence`` is, bit for bit, and refused
    with the ``ValueError`` that ``Sequence`` raises.  The measures are
    scale-invariant, so the taps are first scaled by an exact power of
    two: up to p in [0.5, 1), p the largest real or imaginary part, when it
    is smaller, and down only as far as p < 2^256 when it is larger.  So
    ||x||^2 neither underflows nor overflows at any tap scale, a modulus
    beyond the float range included, and no nonzero tap near the subnormal
    floor is flushed to 0.  |x_k|^2, the weights and rho are then computed
    once each: |x_k|^2 of real taps as the squares of their real parts,
    with no modulus, rho from one correlation of the taps, or one transform
    pair on long sequences (``_rho``), divided by r_0 componentwise, tau
    from the complex lag-one sum of ``autocorrelation``, whose grouping a
    real sum would not keep.  Taps far below the largest one can still
    have squares (or a |tau|^2) below the normal range; eta_p is then
    formed from unsquared ratios, so it stays accurate even where delta_n2
    rounds to 0 and delta_wp2 to infinity.  An offset that puts mu_n
    beyond the float range raises ValueError.  With ``linear=False``
    neither rho nor the lag sums are formed, and mu_wl, delta_wl2 and
    eta_l are None; the other fields do not depend on ``linear``.
    """
    if isinstance(x, Sequence):
        offset, real = x.offset, not np.count_nonzero(x.taps.imag)
        parts = x.taps.real if real else x.taps.view(np.float64)
    else:
        parts, offset, real = x, 0, True
    e = math.frexp(_peak(parts))[1]
    e -= min(max(e, 0), _MAX_EXPONENT)
    s = np.ldexp(parts, -e, dtype=np.float64)  # a copy, its signed zeros kept
    s = s if real else s.view(np.complex128)
    a2 = np.square(s) if real else np.abs(s) ** 2  # |x_k|^2
    r0 = float(np.add.reduce(a2))
    n = a2.size
    c = n // 2  # moments about the middle tap: no offset costs dk its digits
    k = np.arange(-c, n - c, dtype=float)
    w = a2 / r0
    mean = float(w @ k)
    try:
        mu_n = (offset + c) + mean
    except OverflowError:
        raise ValueError("offset puts the time center beyond the float range") from None
    dk = k - mean
    dn2 = float(w @ dk**2)

    tau = autocorrelation(s, 1) / r0
    t = abs(tau)
    t2 = t * t
    # a |tau| too small to square is an infinite spread, not a 1/0
    dwp2 = (1.0 - t2) / t2 if t2 else math.inf
    if t == 0.0:  # as it is with a single nonzero tap, where eta_p is 0 * inf
        eta_p = None if np.count_nonzero(s) <= 1 else math.inf
    elif t2 < _TINY or dn2 < n**3 * _TINY:
        # Weights below the normal range cost dn2 at most len^3 * 2^-1074,
        # under an ulp when dn2 >= len^3 * tiny.  Otherwise, or when |tau|^2
        # is below the normal range, form dn2 * (1 - t2)/t2 from unsquared
        # ratios; a product beyond the float range is inf.
        with np.errstate(over="ignore"):
            z = np.abs(s) * dk / (math.sqrt(r0) * t)
            eta_p = float(z @ z) * (1.0 - t2)
    else:
        eta_p = dn2 * dwp2

    mu_wl = dwl2 = eta_l = None
    if linear:
        rho = _rho(s, r0, real)
        m = np.arange(1, n)
        # the terms (-1)^m rho_m / m and (-1)^m rho_m / m^2: odd lags negated
        im = rho.imag / m
        im[::2] *= -1.0
        re = rho.real / m**2
        re[::2] *= -1.0
        mu_wl = float(2.0 * im.sum())
        dwl2 = float(math.pi**2 / 3.0 + 4.0 * re.sum() - mu_wl * mu_wl)
        eta_l = dn2 * dwl2
    # positional, in field order: keywords cost a frozen dataclass more
    return SpreadReport(mu_n, dn2, tau, dwp2, mu_wl, dwl2, eta_p, eta_l, 1.0 - tau)
