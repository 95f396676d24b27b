"""Finite-support discrete-time sequences.

A sequence is a finite block of complex taps together with the integer
index of its first tap.  Tap ``i`` of the block sits at time index
``offset + i``; everything outside the block is zero.  All spread and
design routines in this package operate on this type.

The on-disk format is one tap per line as two floats ``re im``, with an
optional leading header line ``# offset=<int>`` (missing header means
offset 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sequence",
    "norm2",
    "shift",
    "modulus",
    "dtft",
    "autocorrelation",
    "read_sequence",
    "write_sequence",
    "parse_sequence",
]


@dataclass(frozen=True)
class Sequence:
    """Immutable finite complex sequence with an integer start index."""

    taps: np.ndarray
    offset: int = 0

    def __post_init__(self):
        taps = np.atleast_1d(np.asarray(self.taps, dtype=np.complex128))
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a nonempty 1-d array")
        if not np.all(np.isfinite(taps.real) & np.isfinite(taps.imag)):
            raise ValueError("taps must be finite")
        if not np.any(taps != 0):
            raise ValueError("sequence must have at least one nonzero tap")
        if self.offset != int(self.offset):
            raise ValueError("offset must be an integer")
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "offset", int(self.offset))

    def __len__(self) -> int:
        return self.taps.size

    @property
    def indices(self) -> np.ndarray:
        """Time indices of the stored taps (``offset .. offset+len-1``)."""
        return self.offset + np.arange(self.taps.size)


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
    k = x.indices
    out = np.exp(-1j * np.outer(w, k)) @ x.taps
    return out.reshape(np.shape(omegas)) if np.shape(omegas) else out[0]


def autocorrelation(x: Sequence, m: int) -> complex:
    """Deterministic autocorrelation r_m = sum_k x_k conj(x_{k+m}).

    Satisfies r_{-m} = conj(r_m) and r_0 = ||x||^2.  Lags at or beyond the
    support length are exactly zero.
    """
    m = int(m)
    if m < 0:
        return complex(np.conj(autocorrelation(x, -m)))
    t = x.taps
    if m >= t.size:
        return 0j
    return complex(np.sum(t[: t.size - m] * np.conj(t[m:])))


# ---------------------------------------------------------------------------
# serialization

def parse_sequence(text: str) -> Sequence:
    """Parse the ``re im`` per-line text format (optional offset header)."""
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


def read_sequence(path) -> Sequence:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence(fh.read())


def write_sequence(x: Sequence, path) -> None:
    """Write ``x`` in the ``re im`` text format, offset header first."""
    lines = [f"# offset={x.offset}"]
    lines += [f"{float(t.real) + 0.0!r} {float(t.imag) + 0.0!r}" for t in x.taps]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
