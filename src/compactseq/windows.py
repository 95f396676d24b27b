"""Classical FIR window families and their spread scan.

Every generator returns a unit-energy :class:`~compactseq.sequence.Sequence`
centered at index 0 (odd tap counts from 3 to 2^21 + 1, so the center is
an integer and the time mean sits exactly on the grid: the designer's rule,
``sequence._check_taps``).  ``spread_scan`` sweeps a family across its
parameter grid and records (delta_wp2, delta_n2, eta_p) per point, which
is the comparison data set for judging windows against the designed
optimum at matched frequency spread.  The stock families scan each
generator's float taps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sequence import Sequence, _check_taps
from .spreads import measure

__all__ = [
    "WindowFamily",
    "ScanPoint",
    "WINDOW_NAMES",
    "standard_windows",
    "sampled_gaussian",
    "three_tap",
    "default_families",
    "spread_scan",
]

WINDOW_NAMES = ("rectangular", "triangular", "hann", "hamming", "blackman")
_COSINE_SUMS = {"rectangular": (1.0,), "hann": (0.5, 0.5), "hamming": (0.54, 0.46),
                "blackman": (0.42, 0.5, 0.08)}


def _generator(taps_of):
    """The generator that returns the float64 taps ``taps_of`` forms as a
    ``Sequence`` centered at index 0; ``taps_of`` stays as its ``taps``."""
    @functools.wraps(taps_of)
    def generator(*args):
        taps = taps_of(*args)
        return Sequence(taps, -(taps.size // 2))
    generator.taps = taps_of
    return generator


@_generator
def standard_windows(name: str, taps: int):
    """One of the classical windows, unit energy, centered at index 0.

    ``taps`` is the full length M.  triangular is Bartlett's, zero at both
    ends; rectangular, hann, hamming (0.54/0.46) and blackman
    (0.42/0.50/0.08) are the generalized-cosine sums (Harris, Proc. IEEE
    66(1), 1978) w[n] = sum_j (-1)^j a_j cos(2 pi j n / (M - 1)).
    """
    taps = _check_taps(taps, 3)
    n = np.arange(taps, dtype=float)
    m = taps - 1
    if name == "triangular":
        w = 1.0 - np.abs(n - m / 2.0) / (m / 2.0)
    elif name in _COSINE_SUMS:
        a0, *rest = _COSINE_SUMS[name]
        w = np.full(taps, a0)
        for j, a in enumerate(rest, 1):
            w += (-1) ** j * a * np.cos(2.0 * math.pi * j * n / m)
    else:
        raise ValueError(f"unknown window {name!r}; expected one of {WINDOW_NAMES}")
    return w / math.sqrt(w @ w)  # the bits of np.linalg.norm


def _width(width: float) -> float:
    width = float(width)
    if not math.isfinite(width):
        raise ValueError(f"width must be finite, not {width!r}")
    if width <= 0.0:
        raise ValueError("width must be positive")
    return width


@_generator
def sampled_gaussian(width: float, taps: int):
    """Samples of exp(-k^2 / (2 width^2)) on k = -N..N, unit energy.

    Below width 0.025 every sample but k = 0 rounds to 0 (exp(-800) is
    below the subnormal range), so the window is the one-tap delta; it is
    built as such, before 2 width^2 underflows or k^2 / (2 width^2)
    overflows.
    """
    width = _width(width)
    taps = _check_taps(taps, 3)
    half = taps // 2
    if width < 0.025:
        w = np.zeros(taps)
        w[half] = 1.0
        return w
    k = np.arange(-half, half + 1, dtype=float)
    w = np.exp(-(k * k) / (2.0 * width * width))
    return w / math.sqrt(w @ w)


def gaussian_auto_taps(width: float) -> int:
    """Tap count that buries the Gaussian's truncation below 1e-12."""
    return 2 * (int(math.ceil(8.0 * max(_width(width), 0.5))) + 4) + 1


@_generator
def three_tap(eps: float):
    """The three-tap probe (eps, sqrt(1 - 2 eps^2), eps) at k = -1, 0, 1,
    for 0 < eps < 1/sqrt(2)."""
    eps = float(eps)
    if not 0.0 < eps < 1.0 / math.sqrt(2.0):
        raise ValueError("eps must lie in (0, 1/sqrt(2))")
    mid = math.sqrt(1.0 - 2.0 * eps * eps)
    return np.array([eps, mid, eps])


@dataclass(frozen=True)
class WindowFamily:
    """A named one-parameter family of unit-energy windows, as ``measure`` reads them."""

    name: str
    params: tuple
    builder: Callable[[float], Sequence | np.ndarray]


def default_families() -> list[WindowFamily]:
    """The stock scan set: five classical windows over odd lengths
    5..401, sampled Gaussians over log-spaced widths [0.3, 50], and the
    three-tap probe over its parameter range."""
    length_grid = tuple(range(5, 402, 4))
    fams = [
        WindowFamily(name, length_grid, lambda t, _n=name: standard_windows.taps(_n, int(t)))
        for name in WINDOW_NAMES
    ]
    widths = tuple(float(w) for w in np.geomspace(0.3, 50.0, 25))
    fams.append(
        WindowFamily(
            "gaussian",
            widths,
            lambda w: sampled_gaussian.taps(w, gaussian_auto_taps(w)),
        )
    )
    eps_grid = tuple(float(e) for e in np.linspace(0.05, 0.65, 13))
    fams.append(WindowFamily("three_tap", eps_grid, three_tap.taps))
    return fams


@dataclass(frozen=True)
class ScanPoint:
    family: str
    param: float
    delta_wp2: float
    delta_n2: float
    eta_p: float
    error: str | None = None


def spread_scan(family: WindowFamily) -> list[ScanPoint]:
    """Measure the family across its grid, sorted by delta_wp2.

    A parameter whose window degenerates (single nonzero tap, vanishing
    trig moment) yields a NaN point carrying the error text instead of
    aborting the scan.  Each window is measured without its linear
    spreads, which the scan does not keep.
    """
    points = []
    for p in family.params:
        try:
            rep = measure(family.builder(p), linear=False)
            eta = rep.eta_p
            if eta is None:
                raise ValueError("degenerate single-tap window")
            points.append(
                ScanPoint(family.name, float(p), rep.delta_wp2, rep.delta_n2, eta)
            )
        except ValueError as exc:
            points.append(
                ScanPoint(family.name, float(p), math.nan, math.nan, math.nan, str(exc))
            )
    points.sort(key=lambda pt: (math.isnan(pt.delta_wp2), pt.delta_wp2))
    return points
