"""``parse_sequence`` against the line-by-line reference parser.

Both must accept the same texts with the same offset and bit-identical
taps (compared as integers, so a -0.0 is told from a 0.0), and both must
refuse the same texts with ``ValueError``; neither may warn.  The general
strategy draws mostly mixed or wide texts, which the Python reader takes;
the uniform one draws all-pair or all-real files, which ``np.loadtxt``
takes where it can.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import parse_sequence_reference  # noqa: E402

from compactseq.sequence import parse_sequence  # noqa: E402

PROPS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

EXTREMES = (
    5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
    0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308,
)
finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
numbers = st.one_of(
    finite,
    finite,
    st.sampled_from(EXTREMES).map(repr),
    st.sampled_from(("1", "+2", ".5", "-3.", "1e5", "1E-5", "1_0")),
)
# one token in 16 cannot be a finite tap
tokens = st.integers(0, 15).flatmap(
    lambda i: st.sampled_from(("inf", "-inf", "nan", "0x10", "abc")) if i == 0 else numbers
)
space = st.sampled_from((" ", "  ", "\t", " \t "))
pad = st.sampled_from(("", " ", "\t"))
comments = st.sampled_from((
    "# offset=3", "#offset=3", "# offset = 3", "#  offset=-12", "# offset=0",
    "# offset=x", "# hello", "#", "  # offset=7", "##offset=2", "# offset=+4",
))


@st.composite
def lines(draw):
    kind = draw(st.sampled_from(("pair",) * 8 + ("real",) * 3 + ("blank", "comment", "wide")))
    if kind == "blank":
        return draw(st.sampled_from(("", " ", "\t", "  \t ")))
    if kind == "comment":
        return draw(comments)
    count = {"pair": 2, "real": 1}.get(kind) or draw(st.integers(3, 4))
    parts = [draw(tokens) for _ in range(count)]
    sep = draw(space)
    return draw(pad) + sep.join(parts) + draw(pad)


texts = st.tuples(
    st.lists(lines(), max_size=12), st.sampled_from(("\n", "\r\n")), st.booleans()
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))

# taps of finite floats both readers take; one file in 8 has one line of
# tokens that only float reads (1_0) or that neither reads
good_numbers = st.one_of(
    finite,
    st.sampled_from(EXTREMES).map(repr),
    st.sampled_from(("1", "+2", ".5", "-3.", "1e5", "1E-5")),
)
odd_tokens = st.sampled_from(("1_0", "inf", "nan", "0x10", "abc"))


@st.composite
def uniform_texts(draw):
    width = draw(st.sampled_from((1, 2)))
    tap = st.lists(good_numbers, min_size=width, max_size=width)
    other = st.one_of(st.sampled_from(("", " ", "\t", "  \t ")), comments)
    kinds = draw(st.lists(st.integers(0, 7), max_size=300))
    lines = []
    for kind in kinds:
        if kind == 0:
            lines.append(draw(other))
        else:
            lines.append(draw(pad) + draw(space).join(draw(tap)) + draw(pad))
    if lines and draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = " ".join([draw(odd_tokens)] * width)
    sep = draw(st.sampled_from(("\n", "\n", "\n", "\r\n")))
    return sep.join(lines) + (sep if draw(st.booleans()) else "")


def _outcome(parse, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = parse(text)
        except ValueError:
            return None
    return s.offset, s.taps.view(np.uint64).tolist()


def _assert_same(text):
    assert _outcome(parse_sequence, text) == _outcome(parse_sequence_reference, text)


@PROPS
@given(texts)
def test_parser_matches_the_reference(text):
    _assert_same(text)


@PROPS
@given(uniform_texts())
def test_uniform_files_match_the_reference(text):
    _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "1 0\n7 0\n2 0\n",
        "# offset=-4\n\n1.5 2.5\n",
        "3\n-1\n",
        "1 2\n3\n-0.0 -0.0\n4 5\n",
        "1 2\r\n# offset=5\r\n3 4\r\n",
        "# offset=1\n1 1\n# offset=2\n2 2\n",
        "#offset=3\n1\n",
        "# offset = 3\n1\n",
        "5e-324 -5e-324\n1.7976931348623157e308 -1.7976931348623157e308\n",
        "   \n\t\n1 2\n  \n",
        "1 2 3\n",
        "1 2\n3 4 5\n",
        "inf 0\n",
        "1 nan\n",
        "abc\n",
        "0 0\n-0.0\n",
        "# offset=0\n",
        "",
        "# offset=x\n1 2\n",
        # str.split, str.strip and str.splitlines take Unicode whitespace
        # and line breaks, float and int Unicode digits
        "1\u00a02\n",
        "1 2\x1c3 4\x855\u20286\n",
        "\u3000#offset=2\n1\n",
        "# offset=\u0661\u0662\n1 2\n",
        "\u0663 4\n",
        # numpy's reader splits lines at \n alone and reads ASCII only;
        # these go to the Python reader, where each break ends a tap line
        "1\v2\n",
        "1\f2\n",
        "1\x1c2\n",
        "1\x852\n",
        "1\u20282\n",
        "# offset=3\r1\n",
        # a '#' after a field is part of the line, not a comment
        "1 #c\n2\n",
        "1 2 #\n3 4\n",
        # no tap line: numpy's reader would warn
        "# offset=3\n# hello\n",
        "#\n",
        " \n\t\n",
        "   ",
    ],
)
def test_parser_examples(text):
    _assert_same(text)
