"""Time and frequency spread measures for finite sequences.

Time-domain moments come from the probability weights |x_k|^2 / ||x||^2.
On the frequency side two spreads are available for the 2*pi-periodic
spectrum X(e^{jw}):

* the periodic spread ``delta_wp2 = (1 - |tau|^2) / |tau|^2`` built from
  the first trigonometric moment ``tau`` (a circular-variance style
  measure, infinite when tau vanishes), and
* the linear spread ``delta_wl2``, the ordinary second central moment of
  |X|^2/(2*pi*||x||^2) over one period [-pi, pi).

Both are evaluated in closed form from the autocorrelation taps; the
integral definitions are recovered term by term using

    (1/2pi) int w e^{-jwm} dw   = j(-1)^m / m,
    (1/2pi) int w^2 e^{-jwm} dw = 2(-1)^m / m^2   (pi^2/3 at m = 0),

so no quadrature is involved.  The products ``eta_p = delta_n2*delta_wp2``
and ``eta_l = delta_n2*delta_wl2`` are the two time-frequency spread
products; eta_p is bounded below by 1/4 whenever the sequence has more
than one nonzero tap, while eta_l can drop below 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequence import Sequence, autocorrelation, norm2

__all__ = [
    "DegenerateSpreadError",
    "SpreadReport",
    "time_center",
    "time_spread",
    "trig_moment",
    "periodic_freq_spread",
    "linear_freq_center",
    "linear_freq_spread",
    "tf_spread_periodic",
    "tf_spread_linear",
    "measure",
]


class DegenerateSpreadError(ValueError):
    """Raised for the 0 * inf spread product of a single-nonzero-tap sequence."""


def _weights(x: Sequence) -> np.ndarray:
    return np.abs(x.taps) ** 2 / norm2(x)


def time_center(x: Sequence) -> float:
    """First moment mu_n of the tap-energy distribution."""
    return float(_weights(x) @ x.indices)


def time_spread(x: Sequence) -> float:
    """Variance delta_n2 of the tap-energy distribution."""
    k = x.indices
    w = _weights(x)
    mu = float(w @ k)
    return float(w @ (k - mu) ** 2)


def trig_moment(x: Sequence) -> complex:
    """First trigonometric moment tau = sum_k x_k conj(x_{k+1}) / ||x||^2.

    Equals the lag-one autocorrelation normalized by the energy; |tau| <= 1
    with equality never attained by a finite sequence of more than one tap.
    """
    return autocorrelation(x, 1) / norm2(x)


def periodic_freq_spread(x: Sequence) -> float:
    """Periodic frequency spread (1 - |tau|^2)/|tau|^2; +inf when tau = 0."""
    t = abs(trig_moment(x))
    if t == 0.0:
        return math.inf
    return (1.0 - t * t) / (t * t)


def _rho(x: Sequence) -> np.ndarray:
    """Normalized autocorrelation taps rho_m = r_m / r_0 for m = 1..len-1."""
    r0 = norm2(x)
    return np.array(
        [autocorrelation(x, m) / r0 for m in range(1, len(x))], dtype=complex
    )


def linear_freq_center(x: Sequence) -> float:
    """Mean of the spectral energy density over one period [-pi, pi)."""
    rho = _rho(x)
    m = np.arange(1, len(x))
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    return float(2.0 * np.sum(signs * rho.imag / m))


def linear_freq_spread(x: Sequence) -> float:
    """Second central moment delta_wl2 of |X|^2/(2 pi ||x||^2) on [-pi, pi)."""
    rho = _rho(x)
    m = np.arange(1, len(x))
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    mu = 2.0 * np.sum(signs * rho.imag / m)
    second = math.pi**2 / 3.0 + 4.0 * np.sum(signs * rho.real / m**2)
    return float(second - mu * mu)


def _nonzero_taps(x: Sequence) -> int:
    return int(np.count_nonzero(x.taps))


def tf_spread_periodic(x: Sequence) -> float:
    """Spread product eta_p = delta_n2 * delta_wp2 (may be +inf).

    A sequence with a single nonzero tap has delta_n2 = 0 and
    delta_wp2 = inf; the product is undefined and raises instead of
    silently returning 0 * inf.
    """
    if _nonzero_taps(x) <= 1:
        raise DegenerateSpreadError(
            "eta_p undefined for a single nonzero tap (0 * inf)"
        )
    d = periodic_freq_spread(x)
    if math.isinf(d):
        return math.inf
    return time_spread(x) * d


def tf_spread_linear(x: Sequence) -> float:
    """Spread product eta_l = delta_n2 * delta_wl2 (always finite)."""
    return time_spread(x) * linear_freq_spread(x)


@dataclass(frozen=True)
class SpreadReport:
    """All spread measures of one sequence.

    ``eta_p`` is None exactly when the sequence has a single nonzero tap
    (degenerate 0 * inf product).  ``mu_wp = 1 - tau`` is carried along as
    metadata; nothing downstream consumes it.
    """

    mu_n: float
    delta_n2: float
    tau: complex
    delta_wp2: float
    mu_wl: float
    delta_wl2: float
    eta_p: float | None
    eta_l: float
    mu_wp: complex


def measure(x: Sequence) -> SpreadReport:
    """Evaluate every spread measure of ``x``.

    Each measure comes from its own function, so the autocorrelation is
    computed three times (for mu_wl, delta_wl2 and eta_l).  The measures
    are scale-invariant, so the taps are first scaled by the exact power
    of two that puts max|x_k| in [0.5, 1): |x_k|^2 then neither underflows
    nor overflows at any tap scale.
    """
    _, e = np.frexp(np.max(np.abs(x.taps)))
    x = Sequence(np.ldexp(x.taps.real, -e) + 1j * np.ldexp(x.taps.imag, -e), x.offset)
    tau = trig_moment(x)
    dwp2 = periodic_freq_spread(x)
    dn2 = time_spread(x)
    if _nonzero_taps(x) <= 1:
        eta_p = None
    elif math.isinf(dwp2):
        eta_p = math.inf
    else:
        eta_p = dn2 * dwp2
    return SpreadReport(
        mu_n=time_center(x),
        delta_n2=dn2,
        tau=tau,
        delta_wp2=dwp2,
        mu_wl=linear_freq_center(x),
        delta_wl2=linear_freq_spread(x),
        eta_p=eta_p,
        eta_l=tf_spread_linear(x),
        mu_wp=1.0 - tau,
    )
