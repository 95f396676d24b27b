import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    freq_moments_quad,
    linear_moments_reference,
    modulus,
    random_sequences,
    shift,
    three_tap_eta_p,
    trig_moment_quad,
)

from compactseq.cli import main
from compactseq.sequence import Sequence, autocorrelation, write_sequence
from compactseq.spreads import _FFT_COMPLEX, _FFT_REAL, measure
from compactseq.windows import three_tap

EX1 = Sequence(np.array([1.0, 7.0, 2.0]))

# frozen values for (1, 7, 2) at offset 0: exact fractions evaluated once
# with 40-digit arithmetic
EX1_MU_N = 57.0 / 54.0
EX1_DN2 = 0.08950617283950617
EX1_TAU = 21.0 / 54.0
EX1_DWP2 = 5.612244897959184
EX1_ETA_P = 0.5023305618543714
EX1_DWL2 = 1.7713496151779344  # pi^2/3 - 82/54
EX1_ETA_L = 0.15854672481530894


def test_example_time_measures():
    rep = measure(EX1)
    assert rep.mu_n == pytest.approx(EX1_MU_N, rel=1e-15)
    assert rep.delta_n2 == pytest.approx(EX1_DN2, rel=1e-15)


def test_example_periodic_measures():
    rep = measure(EX1)
    assert rep.tau == pytest.approx(EX1_TAU, rel=1e-15)
    assert rep.delta_wp2 == pytest.approx(EX1_DWP2, rel=1e-14)
    assert rep.eta_p == pytest.approx(EX1_ETA_P, rel=1e-14)


def test_example_linear_measures():
    rep = measure(EX1)
    assert rep.mu_wl == pytest.approx(0.0, abs=1e-15)
    assert rep.delta_wl2 == pytest.approx(EX1_DWL2, rel=1e-14)
    eta_l = rep.eta_l
    assert eta_l == pytest.approx(EX1_ETA_L, rel=1e-14)
    # the linear product dips below the 1/4 floor of the periodic one
    assert eta_l < 0.25


def test_single_delta():
    d = Sequence([2.0], offset=5)
    rep = measure(d)
    assert rep.delta_n2 == 0.0
    assert math.isinf(rep.delta_wp2)
    assert rep.delta_wl2 == pytest.approx(math.pi**2 / 3.0, rel=1e-15)


def test_degenerate_eta_p_raises():
    d = Sequence([0.0, 3.0, 0.0], offset=-1)
    rep = measure(d)
    assert rep.eta_p is None
    assert math.isinf(rep.delta_wp2)


def test_zero_tau_infinite_spread():
    # two taps two apart: lag-1 products vanish but the support doesn't
    s = Sequence([1.0, 0.0, 1.0])
    rep = measure(s)
    assert rep.tau == 0
    assert math.isinf(rep.delta_wp2)
    assert rep.eta_p == math.inf


def test_unsquarable_tau_is_infinite_spread():
    # |tau| = 1e-170 is nonzero but its square underflows to 0 (eta_p stays
    # finite: test_eta_p_with_underflowing_squares)
    rep = measure(Sequence([1.0, 1e-170]))
    assert rep.tau != 0
    assert math.isinf(rep.delta_wp2)


@pytest.mark.parametrize("eps", [1e-150, 1e-155, 1e-160, 1e-170, 1e-300, 5e-324])
def test_eta_p_with_underflowing_squares(eps):
    # taps (1, eps): eta_p = 1 - eps^2/(1 + eps^2)^2, although eps^2 and
    # |tau|^2 fall below the normal range; 5e-324, the smallest subnormal,
    # is flushed to 0 if the taps are scaled down to max|x| < 1
    exact = 1.0 - eps * eps / (1.0 + eps * eps) ** 2
    assert measure(Sequence([1.0, eps])).eta_p == pytest.approx(exact, rel=1e-12)


# every part finite, but the first two moduli (2.4e308, 1.56e308) past or
# near the float range
BIG = np.array([1.7e308 + 1.7e308j, 1.0e308 - 1.2e308j, 3e307])


@pytest.mark.parametrize("linear", [True, False])
def test_modulus_past_the_float_range_scales_like_any_tap(linear):
    # the power of two comes from the largest part, so these taps measure
    # as the same taps times 2^-600 do, with no overflow warning
    small = np.ldexp(BIG.real, -600) + 1j * np.ldexp(BIG.imag, -600)
    rep = measure(Sequence(BIG), linear=linear)
    assert rep == measure(Sequence(small), linear=linear)
    assert math.isfinite(rep.eta_p)


def test_analyze_past_the_modulus_range_prints_strict_json(tmp_path, capsys):
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    path = tmp_path / "big.seq"
    path.write_text("1.7e308 1.7e308\n1.0e308 -1.2e308\n3e307 0\n")
    assert main(["analyze", "--input", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert math.isfinite(obj["eta_p"])


def test_autocorrelation_taken_once_per_lag(monkeypatch):
    # rho comes from one correlation, so the lag-one sum for tau is the only
    # autocorrelation call, at every length
    import compactseq.spreads as spreads

    calls = []
    inner = spreads.autocorrelation

    def counting(x, m):
        calls.append(m)
        return inner(x, m)

    monkeypatch.setattr(spreads, "autocorrelation", counting)
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 17, 401):
        calls.clear()
        measure(Sequence(rng.normal(size=n) + 1j * rng.normal(size=n)))
        assert calls == [1]


@pytest.fixture
def rho_calls(monkeypatch):
    """(rescaled taps, r0, rho) of every ``_rho`` call that ``measure`` makes."""
    import compactseq.spreads as spreads

    calls = []
    inner = spreads._rho

    def recording(t, r0, real):
        rho = inner(t, r0, real)
        calls.append((t, r0, rho))
        return rho

    monkeypatch.setattr(spreads, "_rho", recording)
    return calls


def _rho_oracle_cases():
    rng = np.random.default_rng(17)
    for n in [*range(1, 65), 401, 4001]:
        re = rng.normal(size=n)
        yield re
        yield re + 1j * rng.normal(size=n)
    for n in (2, 3, 9, 64, 401):
        t = rng.normal(size=n) + 1j * rng.normal(size=n)
        t[1::2] = 0.0  # every odd lag, tau included, is exactly 0
        yield t.real
        yield t
        t = np.zeros(n, dtype=complex)
        t[rng.integers(n)] = 1.5 - 0.5j
        yield t.real
        yield t
    for scale in (1e-300, 1e160):
        yield scale * rng.normal(size=41)
        yield scale * (rng.normal(size=41) + 1j * rng.normal(size=41))


def test_rho_equals_the_per_lag_sums(rho_calls):
    # the one correlation against rho_m = r_m / r_0 taken lag by lag, on the
    # rescaled tap array measure passes in, float64 where the taps are real;
    # |rho_m| <= 1, so 1e-13 absolute.  Real taps are measured from a
    # Sequence and from the array itself, with the same bits (repr tells
    # -0.0 from 0.0)
    for taps in _rho_oracle_cases():
        real = not np.any(np.imag(taps))
        reports = []
        for x in (Sequence(taps), taps) if real else (Sequence(taps),):
            rho_calls.clear()
            reports.append(repr(measure(x)))
            (t, r0, rho), = rho_calls
            assert t.dtype == (np.float64 if real else np.complex128)
            want = np.array(
                [autocorrelation(t, m) / r0 for m in range(1, t.size)], dtype=complex
            )
            assert rho.shape == want.shape
            assert np.max(np.abs(rho - want), initial=0.0) <= 1e-13, t.size
            if real:
                assert not np.any(rho.imag)
            if not np.any(t[1::2]):
                assert not np.any(rho[::2])
        assert len(set(reports)) == 1, taps.size


@pytest.mark.parametrize(
    "taps, error",
    [
        (np.zeros(0), "taps must be a nonempty 1-d array"),
        (np.ones((2, 3)), "taps must be a nonempty 1-d array"),
        (np.array([1.0, math.nan]), "taps must be finite"),
        (np.array([-math.inf, 1.0]), "taps must be finite"),
        (np.array([0.0, -0.0]), "sequence must have at least one nonzero tap"),
    ],
)
def test_arrays_are_refused_as_sequences_are(taps, error):
    for build in (Sequence, measure):
        with pytest.raises(ValueError, match=error):
            build(taps)


@pytest.mark.parametrize("scale", [1.0, 0.01, 1e-310, 1e300])
def test_signed_zero_taps_do_not_show(scale):
    # measure keeps a -0.0 tap as it is; every measure reads the taps
    # through |x_k| or a sum that starts at +0, so no reported bit may
    # depend on the sign of a zero
    rng = np.random.default_rng(23)
    negative_zeros = 0
    for _ in range(200):
        n = int(rng.integers(1, 12))
        re = rng.choice([0.0, 1.0, -1.0, 0.5, -3.0], n) * scale
        im = rng.choice([0.0, 0.0, 2.0, -0.25], n) * scale * rng.integers(2)
        if not (np.any(re) or np.any(im)):
            continue
        flip = rng.random((2, n)) < 0.5
        signed = np.empty(n, dtype=complex)
        signed.real = np.where(flip[0] & (re == 0), -0.0, re)
        signed.imag = np.where(flip[1] & (im == 0), -0.0, im)
        plain = np.empty(n, dtype=complex)
        plain.real, plain.imag = re + 0.0, im + 0.0
        v = signed.view(float)
        negative_zeros += np.count_nonzero(np.signbit(v) & (v == 0))
        assert repr(measure(Sequence(signed))) == repr(measure(Sequence(plain)))
    assert negative_zeros > 100


def test_three_tap_closed_forms():
    for eps in (0.1, 0.01, 0.3):
        rep = measure(three_tap(eps))
        assert rep.mu_n == pytest.approx(0.0, abs=1e-15)
        assert rep.delta_n2 == pytest.approx(2 * eps**2, rel=1e-13)
        assert rep.tau.real == pytest.approx(
            2 * eps * math.sqrt(1 - 2 * eps**2), rel=1e-13
        )
        assert rep.eta_p == pytest.approx(three_tap_eta_p(eps), rel=1e-13)
    rep = measure(three_tap(0.1))
    assert rep.delta_wp2 == pytest.approx(24.510204081632653, rel=1e-13)
    assert rep.eta_p == pytest.approx(0.4902040816326531, rel=1e-13)
    # both parameter extremes push the product toward 1/2
    assert three_tap_eta_p(0.01) == pytest.approx(0.5, abs=1e-3)
    assert measure(three_tap(0.5)).eta_p == pytest.approx(0.5, rel=1e-12)


def test_trig_moment_against_integral():
    # The spectral form (1/2pi||x||^2) int e^{jw}|X|^2 dw carries the
    # opposite conjugation to the lag-one tap sum; they agree through a
    # conjugate (and exactly for real sequences).
    rng = np.random.default_rng(11)
    for s in random_sequences(rng, 12):
        q = trig_moment_quad(s)
        assert q == pytest.approx(np.conj(measure(s).tau), abs=1e-12)
    assert trig_moment_quad(EX1) == pytest.approx(measure(EX1).tau, abs=1e-13)


def test_linear_spread_against_quadrature():
    rng = np.random.default_rng(12)
    for s in random_sequences(rng, 15, max_len=10):
        mu_q, var_q = freq_moments_quad(s)
        rep = measure(s)
        assert rep.mu_wl == pytest.approx(mu_q, abs=1e-6)
        assert rep.delta_wl2 == pytest.approx(var_q, abs=1e-6)


def _crossover(real):
    return _FFT_REAL if real else _FFT_COMPLEX


def _long_case(kind, real, n, rng):
    t = rng.normal(size=n)
    if not real:
        t = t + 1j * rng.normal(size=n)
    if kind == "sparse":
        t[1::2] = 0.0  # every odd lag is exactly 0
    elif kind == "tiny":
        t = t * 1e-300
    elif kind == "huge":
        t = t * 1e160
    return Sequence(t, 10**12 if kind == "offset" else -7)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["plain", "sparse", "tiny", "huge", "offset"])
def test_linear_spread_from_transforms_matches_the_correlation(kind, real):
    # just below the crossover rho comes from np.correlate, from it on from
    # the transforms; both against one correlation of the taps in helpers
    rng = np.random.default_rng(29)
    for n in (_crossover(real) - 1, _crossover(real), 4001):
        x = _long_case(kind, real, n, rng)
        rep = measure(x)
        mu, dwl2 = linear_moments_reference(x)
        assert abs(rep.mu_wl - mu) <= 1e-14, n
        assert abs(rep.delta_wl2 - dwl2) <= 1e-14, n
        if real:
            assert rep.mu_wl == 0.0


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_linear_spread_from_transforms_against_quadrature(real):
    # the first length on the transforms; the trapezoid's own error, from
    # the jump of w |X|^2 at +-pi, is under 1e-7 here
    x = _long_case("plain", real, _crossover(real), np.random.default_rng(30))
    mu_q, var_q = freq_moments_quad(x)
    rep = measure(x)
    assert rep.mu_wl == pytest.approx(mu_q, abs=1e-6)
    assert rep.delta_wl2 == pytest.approx(var_q, abs=1e-6)


def test_transforms_take_over_at_the_crossover(monkeypatch):
    # np.correlate forms rho below each crossover and never from it on
    calls = []
    correlate = np.correlate

    def counting(a, v, mode):
        calls.append(len(a))
        return correlate(a, v, mode)

    monkeypatch.setattr(np, "correlate", counting)
    rng = np.random.default_rng(31)
    for real in (True, False):
        c = _crossover(real)
        for n in (c - 1, c, 4001):
            calls.clear()
            measure(_long_case("plain", real, n, rng))
            assert calls == ([n] if n < c else []), (real, n)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_one_nonzero_tap_has_zero_linear_center(real):
    # every lag of one nonzero tap is exactly 0, on either side of the
    # crossover: no transform noise shows in mu_wl or delta_wl2
    rng = np.random.default_rng(32)
    c = _crossover(real)
    for n in (1, 2, c - 1, c, 3000, 4001):
        t = np.zeros(n, dtype=float if real else complex)
        t[rng.integers(n)] = -2.5 if real else 1.5 - 0.5j
        rep = measure(Sequence(t, 3))
        assert rep.mu_wl == 0.0, n
        assert rep.delta_wl2 == math.pi**2 / 3, n


def test_shift_invariance():
    rng = np.random.default_rng(13)
    for s in random_sequences(rng, 25):
        rep = measure(s)
        for m in (-3, 1, 8):
            rep2 = measure(shift(s, m))
            assert rep2.mu_n == pytest.approx(rep.mu_n + m, rel=1e-12, abs=1e-12)
            for fld in ("delta_n2", "delta_wp2", "delta_wl2", "mu_wl", "eta_l"):
                a, b = getattr(rep, fld), getattr(rep2, fld)
                if isinstance(a, float) and math.isinf(a):
                    assert math.isinf(b)
                else:
                    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
            if rep.eta_p is None:
                assert rep2.eta_p is None
            elif math.isinf(rep.eta_p):
                assert math.isinf(rep2.eta_p)
            else:
                assert rep2.eta_p == pytest.approx(rep.eta_p, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("offset", [-1000, 10**12, 2**53, 10**20])
def test_offset_moves_only_the_time_center(offset):
    # the moments are taken about the middle tap, so an offset far beyond
    # 2^53 still leaves every spread bit for bit as at offset 0
    rng = np.random.default_rng(16)
    for taps in (EX1.taps, rng.normal(size=50) + 1j * rng.normal(size=50)):
        rep0 = measure(Sequence(taps, 0))
        rep = measure(Sequence(taps, offset))
        assert repr(replace(rep, mu_n=0.0)) == repr(replace(rep0, mu_n=0.0))
        exact = Fraction(rep0.mu_n) + offset
        assert abs(Fraction(rep.mu_n) - exact) <= math.ulp(rep.mu_n)


def test_modulus_contraction():
    # dropping phases can only tighten the periodic spread product
    rng = np.random.default_rng(14)
    checked = 0
    for s in random_sequences(rng, 60):
        rep = measure(s)
        rep_m = measure(modulus(s))
        if rep.eta_p is None or math.isinf(rep.eta_p):
            continue
        assert rep_m.eta_p is not None
        assert rep_m.eta_p <= rep.eta_p + 1e-12
        checked += 1
    assert checked > 30


def test_uncertainty_floor_fuzz():
    rng = np.random.default_rng(15)
    for s in random_sequences(rng, 200):
        rep = measure(s)
        if rep.eta_p is None or math.isinf(rep.eta_p):
            continue
        assert rep.eta_p >= 0.25 - 1e-9


def test_report_json_encoding(tmp_path, capsys):
    def report(x):
        path = tmp_path / "x.seq"
        write_sequence(x, path)
        assert main(["analyze", "--input", str(path)]) == 0
        return json.loads(capsys.readouterr().out)

    obj = report(EX1)
    assert set(obj) == {
        "mu_n", "delta_n2", "tau", "delta_wp2", "mu_wl", "delta_wl2",
        "eta_p", "eta_l", "mu_wp",
    }
    assert obj["tau"] == pytest.approx([EX1_TAU, 0.0])
    assert obj["mu_wp"] == pytest.approx([1 - EX1_TAU, 0.0])
    # infinities serialize as the string "inf", the degenerate product as null
    obj = report(Sequence([1.0, 0.0, 1.0]))
    assert obj["delta_wp2"] == "inf"
    assert obj["eta_p"] == "inf"
    obj = report(Sequence([1.0]))
    assert obj["eta_p"] is None


@pytest.mark.parametrize("dtype", [np.complex128, np.int64, np.float32, np.float16])
def test_tap_arrays_must_be_float64(dtype):
    # a complex array once died in np.ldexp's TypeError, and an integer or
    # narrower float array was measured silently as float64
    taps = np.array([1.0, 7.0, 2.0]).astype(dtype)
    with pytest.raises(ValueError, match=f"must be float64, not {np.dtype(dtype)}") as info:
        measure(taps)
    assert ("wrap complex taps in a Sequence" in str(info.value)) == (taps.dtype.kind == "c")
    assert measure(Sequence(taps)) == measure(EX1)
