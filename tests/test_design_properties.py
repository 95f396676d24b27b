"""Property tests for the designer and the CLI: ``ok`` designs sit inside the
analytic envelope with symmetric, nonnegative taps, the optimal time spread
falls as sigma2 grows, and CLI output bytes are a pure function of the
argv."""

import contextlib
import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from compactseq.bounds import eta_lower, eta_upper  # noqa: E402
from compactseq.cli import main  # noqa: E402
from compactseq.design import design_max_compact  # noqa: E402

# each example runs one to four designs, so the budget is smaller than the
# spreads properties'
PROPS = settings(max_examples=15, deadline=None, derandomize=True, database=None)


# log-uniform sigma2 in [3e-4, 0.1]; below 1e-3 the 201-tap designs are
# flagged increase-taps, which the envelope property does not cover
@PROPS
@given(st.floats(-3.5, -1.0).map(lambda e: 10.0**e))
def test_ok_design_inside_envelope(sigma2):
    res = design_max_compact(sigma2, taps=201)
    if res.status == "ok":
        assert eta_lower(sigma2) <= res.eta_p <= eta_upper(sigma2)
        # the sign contract: the taps are the ground state of an M-matrix,
        # exactly symmetric and entrywise nonnegative
        taps = res.sequence.taps
        assert np.array_equal(taps, taps[::-1]) and np.all(taps.real >= 0.0)
        assert not np.any(taps.imag)


# sigma2 = 10^(e/8) for e in [-24, 8]: 1e-3 .. 10, a factor 1.33 apart at least
@PROPS
@given(st.lists(st.integers(-24, 8), min_size=2, max_size=4, unique=True))
def test_time_spread_falls_with_sigma2(exponents):
    spreads = [design_max_compact(10.0 ** (e / 8)).delta_n2_opt for e in sorted(exponents)]
    assert all(b <= a for a, b in zip(spreads, spreads[1:]))


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


_formats = st.sampled_from(["json", "csv"])
_taps = st.sampled_from(["21", "51", "101"])
_design_argv = st.builds(
    lambda s2, taps, fmt: ["design", "--sigma2", repr(s2), "--taps", taps, "--format", fmt],
    st.floats(1e-3, 10.0), _taps, _formats,
)
_curve_argv = st.builds(
    lambda a, b, pts, taps, fmt: [
        "curve", "--grid", f"{a!r}:{b!r}:{pts}:log", "--taps", taps, "--format", fmt,
    ],
    st.floats(1e-3, 10.0), st.floats(1e-3, 10.0), st.integers(1, 3), _taps, _formats,
)


@PROPS
@given(st.one_of(_design_argv, _curve_argv))
def test_cli_bytes_repeat(argv):
    first = _stdout(argv)
    assert first == _stdout(argv)
