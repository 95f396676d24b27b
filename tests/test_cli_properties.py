"""Property test for ``cli._csv``: the rows interleaved into one join give
the text of the rows joined one by one, on generated tables of 1 to 6
string or float columns and 1 to 2000 rows, with NaN, None, infinities,
signed zeros and subnormals among the floats."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import csv_reference  # noqa: E402

from compactseq.cli import _csv  # noqa: E402

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_cell = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, math.nan, math.inf, -math.inf, None]),
)


@st.composite
def tables(draw):
    nrows = draw(st.integers(1, 2000))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["floats", "array", "strings"]))
        if kind == "strings":
            word = st.text("abc_-. ", min_size=1, max_size=8)
            columns.append(draw(st.lists(word, min_size=nrows, max_size=nrows)))
            continue
        # a few drawn cells repeated over the rows keep large tables cheap
        cells = draw(st.lists(_cell, min_size=1, max_size=16))
        col = [cells[i % len(cells)] for i in range(nrows)]
        if kind == "array":
            col = np.array([math.nan if c is None else c for c in col])
        columns.append(col)
    return columns


@PROPS
@given(tables())
def test_csv_matches_the_rows_joined_one_by_one(columns):
    header = ",".join(f"c{j}" for j in range(len(columns)))
    assert _csv(header, columns) == csv_reference(header, columns)
