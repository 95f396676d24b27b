"""Property tests for ``measure``: scale, shift and modulus invariants and
the 1/4 floor of eta_p, on generated sequences of up to 12 taps and, for
the linear spread, of lengths on both sides of the lengths from which
rho comes from transforms; and that ``linear=False`` leaves every other
field bit for bit as it was."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import modulus, shift  # noqa: E402

from compactseq.sequence import Sequence  # noqa: E402
from compactseq.spreads import _FFT_COMPLEX, _FFT_REAL, measure  # noqa: E402
from compactseq.windows import gaussian_auto_taps, sampled_gaussian  # noqa: E402

# fixed, seed-independent example budget so the suite's run time is bounded
PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# tap parts of magnitude 0 or in [1e-3, 1e3], so no scale below pushes a tap
# into the subnormal range
_part = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False).map(
    lambda v: 0.0 if abs(v) < 1e-3 else v
)


@st.composite
def sequences(draw):
    n = draw(st.integers(1, 12))
    taps = np.array(draw(st.lists(_part, min_size=2 * n, max_size=2 * n)))
    taps = taps[:n] + 1j * taps[n:]
    if draw(st.booleans()):
        taps = taps.real.astype(complex)
    if not np.any(taps != 0):
        taps[draw(st.integers(0, n - 1))] = 1.0
    return Sequence(taps, draw(st.integers(-50, 50)))


def _same_eta_p(a, b, rel):
    if a is None or math.isinf(a):
        return b == a
    return b == pytest.approx(a, rel=rel, abs=1e-12)


@PROPS
@given(sequences(), st.integers(-900, 900))
def test_power_of_two_scale_is_exact(x, k):
    # the rescale to max|x| in [0.5, 1) removes a power of two exactly
    scaled = Sequence(np.ldexp(x.taps.real, k) + 1j * np.ldexp(x.taps.imag, k), x.offset)
    assert measure(scaled) == measure(x)


@PROPS
@given(
    sequences(),
    st.integers(0, 11),
    st.floats(0.71, 1.0, exclude_max=True),
    st.sampled_from((1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)),
)
def test_power_of_two_scale_past_the_modulus_range(x, j, f, signs):
    # tap j becomes f 2^e (±1 ± 1j), 2^e just above every part, and all taps
    # are scaled by 2^(1024 - e): every part stays below 2^1024, while tap
    # j's modulus f sqrt(2) 2^1024 is past the float range
    taps = x.taps.copy()
    e = math.frexp(float(np.abs(taps.view(float)).max()))[1]
    taps[j % taps.size] = math.ldexp(f, e) * signs
    k = 1024 - e
    big = np.ldexp(taps.real, k) + 1j * np.ldexp(taps.imag, k)
    assert np.isfinite(big).all() and not np.isfinite(np.abs(big)).all()
    assert measure(Sequence(big, x.offset)) == measure(Sequence(taps, x.offset))


@PROPS
@given(sequences(), st.floats(1e-3, 1e3), st.floats(0.0, 2 * math.pi))
def test_complex_scale_invariance(x, mag, phase):
    rep = measure(x)
    rep_c = measure(Sequence(x.taps * (mag * np.exp(1j * phase)), x.offset))
    for fld in ("mu_n", "delta_n2", "mu_wl", "delta_wl2", "eta_l"):
        assert getattr(rep_c, fld) == pytest.approx(getattr(rep, fld), rel=1e-9, abs=1e-12)
    assert rep_c.tau == pytest.approx(rep.tau, abs=1e-12)
    assert rep_c.mu_wp == pytest.approx(rep.mu_wp, abs=1e-12)
    assert (rep_c.eta_p is None) == (rep.eta_p is None)
    # (1 - |tau|^2)/|tau|^2 is well conditioned only away from tau = 0
    if abs(rep.tau) > 1e-3:
        assert rep_c.delta_wp2 == pytest.approx(rep.delta_wp2, rel=1e-9)
        assert _same_eta_p(rep.eta_p, rep_c.eta_p, rel=1e-9)


@PROPS
@given(sequences(), st.integers(-500, 500))
def test_shift_moves_only_mu_n(x, m):
    rep = measure(x)
    rep_s = measure(shift(x, m))
    assert rep_s.mu_n == pytest.approx(rep.mu_n + m, rel=1e-12, abs=1e-9)
    assert rep_s.delta_n2 == pytest.approx(rep.delta_n2, rel=1e-9, abs=1e-12)
    assert rep_s.eta_l == pytest.approx(rep.eta_l, rel=1e-9, abs=1e-12)
    assert _same_eta_p(rep.eta_p, rep_s.eta_p, rel=1e-9)
    # the frequency side never sees the offset
    for fld in ("tau", "delta_wp2", "mu_wl", "delta_wl2", "mu_wp"):
        assert getattr(rep_s, fld) == getattr(rep, fld)


# wide sampled Gaussians come within 2e-3 of the 1/4 floor
_gaussians = st.floats(2.0, 12.0).map(lambda s: sampled_gaussian(s, gaussian_auto_taps(s)))


@PROPS
@given(st.one_of(sequences(), _gaussians))
def test_eta_p_floor(x):
    eta_p = measure(x).eta_p
    if eta_p is not None and math.isfinite(eta_p):
        assert eta_p >= 0.25 - 1e-9


@PROPS
@given(sequences())
def test_modulus_never_widens_eta_p(x):
    # |sum x_k conj(x_k+1)| <= sum |x_k||x_k+1| with the weights unchanged
    rep = measure(x)
    rep_m = measure(modulus(x))
    if rep.eta_p is None:
        assert rep_m.eta_p is None
    else:
        assert rep_m.eta_p <= rep.eta_p * (1 + 1e-9)


@st.composite
def long_sequences(draw):
    """Real or complex normal taps, some with every other tap zero, of a
    length from below the complex crossover to above the real one."""
    n = draw(st.integers(_FFT_COMPLEX - 64, _FFT_REAL + 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = rng.normal(size=n)
    if draw(st.booleans()):
        taps = taps + 1j * rng.normal(size=n)
    if draw(st.booleans()):
        taps[1::2] = 0.0
    return Sequence(taps, draw(st.integers(-50, 50)))


@PROPS
@given(
    long_sequences(),
    st.integers(-500, 500),
    st.integers(-900, 900),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 2 * math.pi),
)
def test_linear_spread_invariants_across_the_crossover(x, m, k, mag, phase):
    rep = measure(x)
    # the frequency side never sees the offset
    rep_s = measure(shift(x, m))
    assert (rep_s.mu_wl, rep_s.delta_wl2) == (rep.mu_wl, rep.delta_wl2)
    # a power of two is removed exactly
    scaled = Sequence(np.ldexp(x.taps.real, k) + 1j * np.ldexp(x.taps.imag, k), x.offset)
    assert measure(scaled) == rep
    # a complex factor can move real taps from one side of their crossover
    # to the other side of the complex one
    rep_c = measure(Sequence(x.taps * (mag * np.exp(1j * phase)), x.offset))
    for fld in ("mu_wl", "delta_wl2", "eta_l"):
        assert getattr(rep_c, fld) == pytest.approx(getattr(rep, fld), rel=1e-9, abs=1e-12)
    # the modulus is real, so its rho is real and mu_wl exactly 0
    rep_m = measure(modulus(x))
    assert rep_m.mu_wl == 0.0
    assert rep_m.eta_p <= rep.eta_p * (1 + 1e-9)


@st.composite
def any_sequences(draw):
    """Real or complex normal taps at 1, 1e-300 or 1e160, of a few taps or
    of a length near either crossover, some with every other tap zero
    (tau = 0) and some with one nonzero tap, at any integer offset; a
    normal draw is never 0, so a tap is always left."""
    n = draw(
        st.one_of(
            st.integers(1, 12),
            st.integers(_FFT_COMPLEX - 8, _FFT_COMPLEX + 8),
            st.integers(_FFT_REAL - 8, _FFT_REAL + 8),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = rng.normal(size=n)
    if draw(st.booleans()):
        taps = taps + 1j * rng.normal(size=n)
    shape = draw(st.sampled_from(("plain", "zero_tau", "one_tap")))
    if shape == "zero_tau":
        taps[1::2] = 0.0
    elif shape == "one_tap":
        keep = draw(st.integers(0, n - 1))
        taps[:keep] = 0.0
        taps[keep + 1:] = 0.0
    scale = draw(st.sampled_from((1.0, 1e-300, 1e160)))
    return Sequence(scale * taps, draw(st.integers(-(2**70), 2**70)))


@PROPS
@given(any_sequences())
def test_measure_without_the_linear_spreads(x):
    full, short = measure(x), measure(x, linear=False)
    # repr tells -0.0 from 0.0 and prints every bit of a float or complex
    for fld in ("mu_n", "delta_n2", "tau", "delta_wp2", "eta_p", "mu_wp"):
        assert repr(getattr(short, fld)) == repr(getattr(full, fld))
    assert (short.mu_wl, short.delta_wl2, short.eta_l) == (None, None, None)
