"""The palindrome-aware tap writers against the per-tap ones.

A design's JSON line and ``write_sequence``'s text format each tap of a
palindrome once and mirror the strings; on any taps, palindromic or not,
their bytes must equal what ``json.dumps`` of every real tap and the
per-tap ``re im`` formula print.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import design_json_reference, sequence_text_reference  # noqa: E402

from compactseq.cli import _design_json  # noqa: E402
from compactseq.design import design_max_compact  # noqa: E402
from compactseq.sequence import Sequence, write_sequence  # noqa: E402

PROPS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

EXTREMES = (
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
    1.7976931348623157e308, 0.0, -0.0,
)
parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EXTREMES),
)


@st.composite
def tap_arrays(draw):
    """Complex taps, all real or not: a palindrome built from a drawn half
    (odd or even length), then one tap replaced, one real part's zero
    sign-flipped, or nothing changed; or a list drawn as is."""
    real = draw(st.booleans())
    taps = st.tuples(parts, parts).map(lambda p: complex(p[0], 0.0 if real else p[1]))
    change = draw(st.sampled_from(("none", "tap", "zero", "unmirrored")))
    if change == "unmirrored":
        x = np.array(draw(st.lists(taps, min_size=1, max_size=16)))
    else:
        half = draw(st.lists(taps, min_size=1, max_size=8))
        x = np.array(half[:0:-1] + half if draw(st.booleans()) else half[::-1] + half)
    i = draw(st.integers(0, x.size - 1))
    if change == "tap":
        x[i] = draw(taps)
    elif change == "zero":
        x[i] = complex(math.copysign(0.0, -math.copysign(1.0, x[i].real)), x[i].imag)
    if not x.any():
        x[i] = 1.0
    return x


@pytest.fixture(scope="module")
def design():
    return design_max_compact(0.5, taps=31)


@pytest.fixture(scope="module")
def seq_path(tmp_path_factory):
    return tmp_path_factory.mktemp("taps") / "x.seq"


@PROPS
@given(taps=tap_arrays(), offset=st.integers(-40, 40))
def test_writers_print_every_tap_as_the_per_tap_ones(design, seq_path, taps, offset):
    x = Sequence(taps, offset)
    res = replace(design, sequence=x)
    assert _design_json(res) == design_json_reference(res)
    write_sequence(x, seq_path)
    assert seq_path.read_bytes().decode("utf-8") == sequence_text_reference(x)
