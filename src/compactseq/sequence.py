"""Finite-support discrete-time sequences.

A sequence is a finite block of complex taps together with the integer
index of its first tap.  Tap ``i`` of the block sits at time index
``offset + i``; everything outside the block is zero.  All spread and
design routines in this package operate on this type.

The on-disk text format is one tap per line: two floats ``re im``, or
one float ``re`` for a real tap; in a file with both, ``re`` reads as
``re 0``.  Blank lines are skipped, and lines starting with ``#`` are
comments, allowed anywhere.  A comment whose text after the ``#`` starts
with ``offset=`` sets the offset to the rest of it, read by ``int``: no
space may come before the ``=``, but ``# offset= 5`` sets 5 (the last
one wins; none means offset 0).  A line with three or more fields, a
field that ``float`` cannot read, a tap that is not finite, or a file
without a nonzero tap is refused with ``ValueError``.  ``read_sequence``
reads UTF-8 and skips a byte-order mark.  ``write_sequence`` writes the
``# offset=`` header first and then ``re im`` lines.

Two readers parse the text.  An ASCII text whose tap lines all have one
field or all have two, with ``\\n`` line breaks and every ``#`` first on
its line, is cut into lines at ``\\n`` and read by ``np.loadtxt``, which
splits and converts the fields in C.  Every other text is split line by
line in Python and converted by ``float``; that reader refuses every bad
tap line.  The taps agree bit for bit, because numpy's reader converts
each field with ``PyOS_string_to_double``, the routine ``float`` calls on
a string.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "Sequence",
    "autocorrelation",
    "read_sequence",
    "write_sequence",
    "parse_sequence",
]

# the longest half N of a grid k = -N..N that a design, window or Mathieu
# evaluation builds
_MAX_HALF_LEN = 2**20
# the smallest positive normal double: design's floor under b and
# b_sup - b, and spreads' underflow test
_TINY = np.finfo(float).tiny


def _whole(x, name):
    """``x`` as an int; ``ValueError`` where it is not a whole number."""
    try:
        n = int(x)
    except (OverflowError, ValueError):  # an infinite or NaN float
        n = None
    if n != x:
        raise ValueError(f"{name} must be an integer")
    return n


def _check_taps(taps, least: int) -> int:
    """``taps`` as an int if it is a whole, odd count (a grid k = -N..N)
    from ``least`` to 2 ``_MAX_HALF_LEN`` + 1 = 2^21 + 1, else
    ``ValueError``: the one tap-count check of designs and windows."""
    taps = _whole(taps, "taps")
    if taps < least or taps % 2 == 0:
        raise ValueError(f"taps must be odd and >= {least}")
    if taps > 2 * _MAX_HALF_LEN + 1:
        raise ValueError(f"taps must be at most {2 * _MAX_HALF_LEN + 1}")
    return taps


def _peak(parts: np.ndarray) -> float:
    """The largest |part| of the float tap parts ``parts``, if valid taps."""
    if parts.ndim != 1 or parts.size == 0:
        raise ValueError("taps must be a nonempty 1-d array")
    # the largest |part| is NaN or infinite exactly when a part is
    peak = float(np.maximum.reduce(np.abs(parts)))
    if not math.isfinite(peak):
        raise ValueError("taps must be finite")
    if not peak:
        raise ValueError("sequence must have at least one nonzero tap")
    return peak


@dataclass(frozen=True)
class Sequence:
    """Immutable finite complex sequence with an integer start index."""

    taps: np.ndarray
    offset: int = 0

    def __post_init__(self):
        # a contiguous complex128 array is kept as it is, not copied
        taps = np.ascontiguousarray(self.taps, dtype=np.complex128)
        _peak(taps.view(np.float64))
        offset = _whole(self.offset, "offset")
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "offset", offset)

    def __len__(self) -> int:
        return self.taps.size


def autocorrelation(x: Sequence | np.ndarray, m: int) -> complex:
    """Deterministic autocorrelation r_m = sum_k x_k conj(x_{k+m}).

    Satisfies r_{-m} = conj(r_m) and r_0 = ||x||^2.  Lags at or beyond the
    support length are exactly zero; a lag that is not whole is refused.
    ``x`` may be a 1-d tap array, summed as complex, as its Sequence is.
    """
    m = _whole(m, "m")
    if m < 0:
        return complex(np.conj(autocorrelation(x, -m)))
    t = x.taps if isinstance(x, Sequence) else np.asarray(x, dtype=np.complex128)
    if m >= t.size:
        return 0j
    return complex(np.add.reduce(t[: t.size - m] * np.conj(t[m:])))


# ---------------------------------------------------------------------------
# serialization

def _offset(comment: str, offset: int) -> int:
    """The offset after the comment line ``comment``: ``# offset=<int>``
    sets it, anything else leaves ``offset``."""
    body = comment.strip()[1:].strip()
    if body.startswith("offset="):
        return int(body[len("offset="):])
    return offset


_NONSPACE = re.compile(r"\S")


def _loadtxt_offset(text: str):
    """The offset of ``text`` if ``np.loadtxt`` reads it as the format
    does, else None.

    It may when ``text`` is ASCII, breaks lines only at ``\\n`` (``loadtxt``
    reads ``\\v``, ``\\f`` and ``\\x1c``-``\\x1e`` as spaces and trips on a
    lone ``\\r``, where ``str.splitlines`` breaks at each), puts every
    ``#`` first on its line (``loadtxt`` drops a ``#`` after a field with
    the rest of the line, where the format refuses the line) and has a tap
    line (``loadtxt`` warns on empty input).  A bad ``# offset=`` raises
    the ``ValueError`` the Python reader would.
    """
    if not text.isascii() or any(c in text for c in "\r\v\f\x1c\x1d\x1e"):
        return None
    offset, start, data = 0, 0, False
    i = text.find("#")
    while i >= 0:
        line = text.rfind("\n", 0, i) + 1
        if _NONSPACE.search(text, line, i):
            return None
        data = data or _NONSPACE.search(text, start, line) is not None
        start = text.find("\n", i)
        if start < 0:
            start = len(text)
        offset = _offset(text[line:start], offset)
        i = text.find("#", start)
    if data or _NONSPACE.search(text, start):
        return offset
    return None


def parse_sequence(text: str) -> Sequence:
    """Parse the sequence text format (see the module docstring).

    Two readers share the work.  A text that ``_loadtxt_offset`` passes,
    whose tap lines all have one field or all have two, is cut at its
    ``\\n`` and read by ``np.loadtxt``, which splits and converts the
    fields in C.  Every other text (a mixed file, three or more fields, a
    field only ``float`` reads, such as ``1_0``) is split once in Python:
    the few ``#`` lines are read for the offset and dropped, a mixed
    file's one-column lines get the token ``"0"``, so it reads as pairs,
    and all tokens are converted by one ``float`` map.  Every refusal but
    a bad ``# offset=`` (``_offset`` raises it for both) comes from this
    reader.  Either way each tap is bit for bit
    ``complex(float(re), float(im))``: ``loadtxt`` converts each field
    with ``PyOS_string_to_double``, the routine ``float`` calls on a
    string.
    """
    offset = _loadtxt_offset(text)
    if offset is not None:
        try:
            vals = np.loadtxt(text.split("\n"), comments="#", ndmin=2)
        except ValueError:  # a mixed file, or a field loadtxt cannot read
            pass
        else:
            if vals.shape[1] == 1:
                return Sequence(vals[:, 0], offset)
            if vals.shape[1] == 2:
                return Sequence(vals.view(np.complex128)[:, 0], offset)
    lines = text.splitlines()
    rows = list(map(str.split, lines))
    offset = 0
    for i in [i for i, row in enumerate(rows) if row and row[0][0] == "#"]:
        offset = _offset(lines[i], offset)
        rows[i] = []
    widths = list(map(len, rows))
    if max(widths, default=0) > 2:
        wide = next(i for i, n in enumerate(widths) if n > 2)
        raise ValueError(f"bad sequence line: {lines[wide]!r}")
    count = sum(widths)
    if not count:
        raise ValueError("no taps found")
    ones = widths.count(1)
    if 0 < ones < count:  # mixed: a one-column line is the pair (re, 0)
        for row in rows:
            if len(row) == 1:
                row.append("0")
        count += ones
    vals = np.fromiter(map(float, chain.from_iterable(rows)), dtype=np.float64, count=count)
    return Sequence(vals if ones == count else vals.view(np.complex128), offset)


def read_sequence(path) -> Sequence:
    """Read a sequence text file; a UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_sequence(fh.read())


def _format_taps(taps: np.ndarray, fmt) -> list:
    """``[fmt(t) for t in taps.tolist()]``, formatting each tap of a
    palindrome once.  Where ``taps`` equals its reverse bit for bit, as the
    design kernel's vector mirrored from its even half does, the strings of
    the taps from the centre on are formatted and joined mirrored.  Bytes
    are compared, not values, so a signed zero is never mirrored onto its
    opposite (-0.0 == 0.0)."""
    if taps.tobytes() != taps[::-1].tobytes():
        return list(map(fmt, taps.tolist()))
    n = taps.size
    half = list(map(fmt, taps[n // 2:].tolist()))
    return half[::-1][: n // 2] + half


def _tap_line(t: complex) -> str:
    return f"{t.real + 0.0!r} {t.imag + 0.0!r}"  # + 0.0 writes -0.0 as 0.0


def write_sequence(x: Sequence, path) -> None:
    """Write ``x`` in the ``re im`` text format, offset header first."""
    lines = [f"# offset={x.offset}", *_format_taps(x.taps, _tap_line)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
