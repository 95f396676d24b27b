"""Lowest even solution of the angular equation y'' + (a - 2q cos 2t) y = 0.

The pi-periodic even eigenfunctions have Fourier-cosine expansions in
cos(2kt) whose coefficient vectors are eigenvectors of the same
tridiagonal family used by the sequence designer: for the ground pair

    a0(q) = 4 * lambda_min(A - (|q|/2) B),

with A = diag(k^2) and B the constant lag-one form, and the coefficients
are the (entrywise positive) ground-state taps.  a0 is even in q, and
the two signs of q are related by the quarter-period reflection
ce0(q; t) = ce0(-q; pi/2 - t), which is how positive q is evaluated
here.  a0 is the kernel's table value, certified with no solve; ce0's
coefficients are the unit, positive, palindromic vector of one ground
solve of :func:`compactseq.eigen.min_eigenpair`.

The grid's half-length is the shorter of two.  One grows as
|q|^(1/4), the width of the ground state at large |q|.  The other is a
tail bound that is short at small |q|: lambda_min <= d_0 = 0, so on every
row k with k^2 > 2|b| (b = -|q|/4 the coupling) a coefficient is at most
|b| / (k^2 - |b|) times the one before it (Parlett's ratio bound), and
the grid ends at the first row where the product of those factors is
below 1e-12 (``eigen._support``, which cuts the kernel's climb at
eps^2).  That grid is the only one: outermost coefficients that still
reach 1e-12 raise :class:`MathieuGridError` rather than let truncation
show, and so does a half-length above 2**20 (|q| above about 1e21),
refused before the grid is allocated.

Normalization: the returned values satisfy int_0^{2pi} ce0^2 dt = pi
(mean-square 1/2 over a period, the classical convention).  To read the
curve as a unit-energy spectrum instead, multiply by sqrt(2): the
spectrum of the unit-norm coefficient sequence is
X(e^{jw}) = sqrt(2) * ce0(q; w/2) for q <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import EigenPair, _ground_value, _k2_grid, _support, min_eigenpair
from .sequence import _MAX_HALF_LEN

__all__ = ["MathieuEval", "MathieuGridError", "char_value_a0", "ce0"]

_TAIL_AMP = 1e-12


class MathieuGridError(RuntimeError):
    """The coefficient tails are not resolved on the grid, or the grid
    would exceed the half-length cap."""


def _first_half_len(lam1: float) -> int:
    """The grid's half-length for the pencil A - lam1*B: the
    large-|q| half-length n0, or the row where the tail bound drops below
    ``_TAIL_AMP`` if that comes first.  The bound's rows start past
    sqrt(lam1) = sqrt(2|b|), which lies beyond n0 once lam1 exceeds about
    3500, so it scans at most 23 rows at any |q|."""
    n0 = max(24, int(math.ceil(8.0 * (lam1 / 2.0) ** 0.25)) + 8)
    return _support(0.5 * lam1, n0, _TAIL_AMP)


def _grid(q: float) -> tuple[float, int]:
    """The coupling b = -|q|/4 and the half-length ``_first_half_len`` gives."""
    lam1 = 0.5 * abs(float(q))
    if not math.isfinite(lam1):
        raise ValueError(f"q must be finite, got {float(q)!r}")
    n = _first_half_len(lam1)
    if n > _MAX_HALF_LEN:
        raise MathieuGridError(f"q={float(q)!r} needs a grid half-length above {_MAX_HALF_LEN}")
    return -0.5 * lam1, n


def _ground_taps(q: float) -> EigenPair:
    """Ground eigenpair for |q| on the grid ``_grid`` sizes, checked for
    tails below ``_TAIL_AMP``."""
    b, n = _grid(q)
    pair = min_eigenpair(_k2_grid(n), b)
    if pair.vector[0] >= _TAIL_AMP:  # positive and palindromic
        raise MathieuGridError(f"coefficient tails not resolved at half-length {n}")
    return pair


def char_value_a0(q: float) -> float:
    """Lowest characteristic value a0(q) = 4*lambda_min(A - (|q|/2)B): the
    kernel table's, which two pivot passes certify within 8 eps
    (|a0| + 2|q|) of the infinite operator's (``eigen._ground_value``),
    -0.0 where it underflows, 0.0 at q = 0; rows 0..N that do not certify
    it raise :class:`MathieuGridError`."""
    b, n = _grid(q)
    enclosure = _ground_value(b, n)
    if enclosure is None:
        raise MathieuGridError(f"coefficient tails not resolved at half-length {n}")
    return 4.0 * enclosure[0] if q else 0.0


@dataclass(frozen=True)
class MathieuEval:
    """ce0 samples plus the spectral data they came from.

    ``fourier_coeffs`` holds the full symmetric tap vector (positive, unit
    norm, read-only like ``values``) on k = -N..N,
    N = ``len(fourier_coeffs) // 2``; tap N+k is the coefficient of
    cos(2kt) up to the overall 1/sqrt(2) scale and, for q > 0, the
    reflection sign (-1)^k.  ``a0`` is ``char_value_a0(q)``, not the
    solve's Rayleigh quotient.
    """

    q: float
    a0: float
    thetas: np.ndarray
    values: np.ndarray
    fourier_coeffs: np.ndarray


def ce0(q: float, thetas) -> MathieuEval:
    """Sample the lowest even eigenfunction ce0(q; t) at the given angles.

    ce0 has period pi, so each angle is reduced by the double nearest pi
    into [0, pi) (``np.remainder``, exact for t >= 0) before 2kt is formed,
    which then stays finite for any finite t.  That double is 1.2e-16 below
    pi, so a reduced angle carries a phase error of about |t| * 4e-17 rad;
    ``thetas`` in the result keeps the angles as given, a scalar as one
    sample; an array of more than one dimension raises ``ValueError``."""
    q = float(q)
    t = np.atleast_1d(np.asarray(thetas, dtype=float))
    if t.ndim > 1:
        raise ValueError(f"thetas must be a scalar or 1-d, got shape {t.shape}")
    pair = _ground_taps(q)
    n = pair.vector.size // 2
    half = pair.vector[n:].copy()  # c_k = tap at +k, k = 0..n
    if q > 0.0:
        half[1::2] = -half[1::2]
    # t * 2k rounds as 2 (t k) save where t k is subnormal (cos 1.0), cos * 2c as 2 cos * c
    phase = np.outer(np.remainder(t, math.pi), np.arange(2.0, 2 * n + 1, 2.0))
    vals = (half[0] + np.cos(phase) @ (2.0 * half[1:])) / math.sqrt(2.0)
    vals.setflags(write=False)
    return MathieuEval(
        q=q,
        a0=char_value_a0(q),
        thetas=t,
        values=vals,
        fourier_coeffs=pair.vector,
    )
