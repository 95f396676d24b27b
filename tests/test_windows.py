import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import norm2, three_tap_eta_p

from compactseq.cli import main
from compactseq.sequence import Sequence
from compactseq.spreads import measure
from compactseq.windows import (
    WINDOW_NAMES,
    ScanPoint,
    WindowFamily,
    default_families,
    gaussian_auto_taps,
    sampled_gaussian,
    spread_scan,
    standard_windows,
    three_tap,
)


def test_rectangular_small():
    s = standard_windows("rectangular", 3)
    assert s.offset == -1
    assert np.allclose(s.taps.real, np.ones(3) / math.sqrt(3))


def test_window_shapes():
    for name in WINDOW_NAMES:
        s = standard_windows(name, 33)
        assert norm2(s) == pytest.approx(1.0, rel=1e-12)
        assert s.offset == -16
        t = s.taps.real
        assert np.allclose(t, t[::-1], atol=1e-15)  # symmetric about k = 0
        assert t[16] == np.max(t)  # peak at the center
    # spot values at the center and edges
    hann = standard_windows("hann", 5).taps.real
    assert hann[0] == 0.0
    raw = np.array([0.08, 0.54, 1.0, 0.54, 0.08])  # 0.54 - 0.46 cos(2 pi k / 4)
    hamming = standard_windows("hamming", 5).taps.real
    assert np.allclose(hamming, raw / np.linalg.norm(raw), atol=1e-15)
    tri = standard_windows("triangular", 5).taps.real
    assert tri[0] == 0.0 and tri[2] > 0
    black = standard_windows("blackman", 7).taps.real
    assert abs(black[0]) < 1e-15


def test_window_errors():
    with pytest.raises(ValueError):
        standard_windows("kaiser", 9)
    with pytest.raises(ValueError):
        standard_windows("hann", 8)  # even length has no center tap
    with pytest.raises(ValueError):
        standard_windows("hann", 1)
    for taps in (9.7, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            standard_windows("hann", taps)
        with pytest.raises(ValueError, match="integer"):
            sampled_gaussian(1.0, taps)


def test_sampled_gaussian():
    s = sampled_gaussian(2.0, 21)
    assert norm2(s) == pytest.approx(1.0, rel=1e-12)
    t = s.taps.real
    assert np.allclose(t, t[::-1], atol=0)
    assert t[10] == np.max(t)
    # wider windows concentrate in frequency
    d1 = measure(sampled_gaussian(1.0, 41)).delta_wp2
    d2 = measure(sampled_gaussian(4.0, 81)).delta_wp2
    assert d2 < d1
    # for a comfortably sampled Gaussian the spread behaves like 1/(2w^2)
    w = 6.0
    d = measure(sampled_gaussian(w, 121)).delta_wp2
    assert d == pytest.approx(1.0 / (2 * w * w), rel=0.05)
    with pytest.raises(ValueError):
        sampled_gaussian(0.0, 21)
    with pytest.raises(ValueError):
        sampled_gaussian(1.0, 20)


def test_sampled_gaussian_extreme_widths():
    # warnings are errors here: no width may print numpy's overflow warning
    delta = np.zeros(9)
    delta[4] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for width in (0.025 * (1 - 2**-52), 1e-100, 1e-155, 1e-162, 1e-300, 5e-324):
            s = sampled_gaussian(width, 9)
            assert s.offset == -4 and s.taps.real.tobytes() == delta.tobytes()
        # every tap of a width too wide to resolve is 1 before the norm
        assert np.all(sampled_gaussian(1e300, 9).taps == 1 / 3)
        for width in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"width must be finite, not {width!r}"):
                sampled_gaussian(width, 9)
            with pytest.raises(ValueError, match=f"width must be finite, not {width!r}"):
                gaussian_auto_taps(width)


def test_three_tap_limits():
    with pytest.raises(ValueError):
        three_tap(0.0)
    with pytest.raises(ValueError):
        three_tap(1 / math.sqrt(2))
    s = three_tap(0.3)
    assert norm2(s) == pytest.approx(1.0, rel=1e-14)
    assert s.offset == -1
    assert measure(s).eta_p == pytest.approx(three_tap_eta_p(0.3), rel=1e-12)


def test_spread_scan_sorted_and_complete():
    fam = WindowFamily("rectangular", (5, 9, 21), lambda t: standard_windows("rectangular", int(t)))
    pts = spread_scan(fam)
    assert len(pts) == 3
    spreads = [p.delta_wp2 for p in pts]
    assert spreads == sorted(spreads)
    assert [p.param for p in pts] == [21.0, 9.0, 5.0]  # longer -> tighter
    for p in pts:
        assert p.error is None
        assert p.eta_p >= 0.25


def test_spread_scan_marks_degenerate():
    # a 3-tap hann has a single nonzero tap: degenerate spread product
    fam = WindowFamily("hann", (3, 9), lambda t: standard_windows("hann", int(t)))
    pts = spread_scan(fam)
    good = [p for p in pts if p.error is None]
    bad = [p for p in pts if p.error is not None]
    assert len(good) == 1 and len(bad) == 1
    assert bad[0].param == 3.0
    assert math.isnan(bad[0].eta_p)


def test_default_families_and_csv(capsys):
    fams = default_families()
    names = [f.name for f in fams]
    assert names == list(WINDOW_NAMES) + ["gaussian", "three_tap"]
    assert fams[0].params[0] == 5 and fams[0].params[-1] == 401
    assert main(["windows", "--family", "three_tap"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "family,param,delta_wp2,delta_n2,eta_p"
    assert len(lines) == 1 + len(fams[-1].params)
    assert all(line.startswith("three_tap,") for line in lines[1:])
    spreads = [float(line.split(",")[2]) for line in lines[1:]]
    assert spreads == sorted(spreads)  # sorted by spread


def _public(name, p):
    """The stock window of family ``name`` at ``p``, from its public
    generator: a Sequence, which the scan itself never builds."""
    if name == "gaussian":
        return sampled_gaussian(p, gaussian_auto_taps(p))
    if name == "three_tap":
        return three_tap(p)
    return standard_windows(name, int(p))


# the fields measure forms whether or not it forms the linear spreads,
# all but mu_n, the one field the offset moves
SHARED = ("delta_n2", "tau", "delta_wp2", "eta_p", "mu_wp")
LINEAR = ("mu_wl", "delta_wl2", "eta_l")


def test_scan_measure_matches_the_full_measure():
    # the scan measures each stock window's float taps without the linear
    # spreads: the same bits as the full measure of the public Sequence
    # (repr tells -0.0 from 0.0 and prints every bit of a float or complex)
    for fam in default_families():
        for p in fam.params:
            taps, x = fam.builder(p), _public(fam.name, p)
            assert taps.tobytes() == x.taps.real.tobytes(), (fam.name, p)
            assert x.offset == -(taps.size // 2)
            full, short = measure(x), measure(taps, linear=False)
            for fld in SHARED:
                assert repr(getattr(short, fld)) == repr(getattr(full, fld)), (fam.name, p, fld)
            for fld in LINEAR:
                assert getattr(short, fld) is None, (fam.name, p, fld)


def test_scan_points_are_the_measure_of_each_window():
    # repr prints every bit: the scan adds no arithmetic of its own, and its
    # float taps measure as the public Sequence does
    for fam in default_families():
        points = {pt.param: pt for pt in spread_scan(fam)}
        for p in fam.params:
            rep = measure(_public(fam.name, p), linear=False)
            want = ScanPoint(fam.name, float(p), rep.delta_wp2, rep.delta_n2, rep.eta_p)
            assert repr(points[float(p)]) == repr(want), (fam.name, p)


def test_stock_scan_builds_no_sequence(monkeypatch, capsys):
    # the stock windows reach measure as float arrays: not one Sequence
    calls = []
    inner = Sequence.__post_init__

    def counting(self):
        calls.append(np.size(self.taps))
        inner(self)

    monkeypatch.setattr(Sequence, "__post_init__", counting)
    assert main(["windows", "--family", "all"]) == 0
    assert capsys.readouterr().out.count("\n") == 539
    assert calls == []
    # the spy sees a public generator's Sequence
    three_tap(0.3)
    assert calls == [3]


def test_window_tap_counts_have_a_ceiling():
    # more taps than the designer's grid cap 2^21 + 1 are refused before any
    # array is made: tracemalloc sees numpy's buffers
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="taps must be at most 2097153"):
            sampled_gaussian(1e20, gaussian_auto_taps(1e20))
        with pytest.raises(ValueError, match="taps must be at most 2097153"):
            standard_windows("hann", 2**21 + 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the width that sampled_gaussian refuses, gaussian_auto_taps refuses
    for width in (0.0, -0.0, -5e-324, -1.0):
        for call in (gaussian_auto_taps, lambda w: sampled_gaussian(w, 9)):
            with pytest.raises(ValueError, match="width must be positive"):
                call(width)


def test_windows_scan_forms_no_rho(monkeypatch, capsys):
    import compactseq.spreads as spreads

    calls = []
    inner = spreads._rho

    def counting(t, r0, real):
        calls.append(t.size)
        return inner(t, r0, real)

    monkeypatch.setattr(spreads, "_rho", counting)
    assert main(["windows", "--family", "all"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + sum(
        len(f.params) for f in default_families()
    )
    assert calls == []
    # the counter sees the full measure's call
    measure(three_tap(0.3))
    assert calls == [3]
