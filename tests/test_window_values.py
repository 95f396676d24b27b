"""Printed ``windows`` values, pinned to 1e-13 relative or to a derived
wider bound where 1 - |tau|^2 is small, and the stock window taps, pinned
bit for bit.

The golden digest of ``windows --family all`` pins every byte, so a change
to how the windows are built or measured that moves a last digit fails
there without saying by how much.  These are ``delta_wp2``, ``delta_n2``
and ``eta_p`` of each stock family's first point, last point and every
10th point of its grid.

The tolerance.  ``delta_n2`` is a mean of positive terms and holds to
1e-13 relative.  ``delta_wp2 = (1 - t^2) / t^2``, t = |tau|, does not
where 1 - t^2 is small: the long windows and the wide Gaussians.
OpenBLAS kernels (Prescott, Haswell, Zen, SkylakeX) sum the dot product
behind a window's norm in different orders, so the norm can move by an
ulp and each tap w_k / ||w|| rounds anew: beyond a common factor, which
the scale-invariant measures cancel, each tap moves by at most
eps = 2^-52 relative.  r_0 = sum x_k^2 and r_1 = sum x_k x_{k+1} are
numpy's own pairwise sums, in one order under every kernel, of terms that
are nonnegative up to blackman's end taps of order 1e-17.  So each moves
by at most 2 eps from its terms plus twice its rounding error, which the
8-way blocked pairwise sum bounds by 22 roundings, 11 eps, for at most 809
terms: 25 eps in all.  Then t moves by at most 51 eps relative and t^2 by
103 eps, and since 1 - t^2 = delta_wp2 / (1 + delta_wp2), formed exactly
where t^2 >= 1/2,

    |d delta_wp2| / delta_wp2 <= 103 eps / (1 - t^2) + 104 eps
                              <= 128 eps (1 + delta_wp2) / delta_wp2,

to which the 1e-13 floor is added; ``eta_p = delta_n2 * delta_wp2`` adds
``delta_n2``'s 1e-13.  Under the Prescott, Haswell and Zen kernels the
largest change measured against these SkylakeX pins was
2 eps (1 + delta_wp2) / delta_wp2 (hann at 325 taps, 3.5e-12 relative),
64 times inside the bound.
"""

import math

import numpy as np
import pytest

from compactseq.windows import (
    WINDOW_NAMES,
    default_families,
    gaussian_auto_taps,
    sampled_gaussian,
    spread_scan,
    standard_windows,
    three_tap,
)

EPS = np.finfo(float).eps
REL = 1e-13
FAMILIES = {f.name: f for f in default_families()}

# family: {param: (delta_wp2, delta_n2, eta_p)}
PINS = {
    "rectangular": {
        5: (0.5624999999999997, 2.0, 1.1249999999999993),
        45: (0.04597107438016559, 168.66666666666666, 7.753787878787929),
        85: (0.023951247165532534, 602.0000000000001, 14.418650793650588),
        125: (0.016194068678460002, 1301.9999999999993, 21.08467741935491),
        165: (0.012232302201070818, 2268.666666666668, 27.75101626016268),
        205: (0.009827950788158407, 3502.0000000000014, 34.417483660130756),
        245: (0.00821351787153999, 5002.000000000001, 41.08401639344304),
        285: (0.007054651854790712, 6768.666666666665, 47.75058685446005),
        325: (0.006182365493065383, 8801.999999999998, 54.417181069961494),
        365: (0.005502052892162588, 11102.000000000002, 61.083791208789066),
        401: (0.005006249999999922, 13399.999999999996, 67.08374999999894),
    },
    "triangular": {
        5: (1.2499999999999996, 0.33333333333333337, 0.4166666666666666),
        45: (0.006220824813857574, 48.349845201238395, 0.30077591677403637),
        85: (0.0017023688222874696, 176.34995749504108, 0.3002126694512784),
        125: (0.0007807924746536379, 384.3499804916113, 0.3000975724011226),
        165: (0.00044627914205298006, 672.3499888467544, 0.30005577618186025),
        205: (0.00028839914291652226, 1040.3499927915802, 0.30003604625430186),
        245: (0.00020158242150096408, 1488.3499949612014, 0.30002519602522665),
        285: (0.00014879291725109772, 2016.349996280592, 0.3000185981458293),
        325: (0.00011431946565367278, 2624.3499971422584, 0.3000142893615207),
        365: (9.057355700388776e-05, 3312.3499977358138, 0.30001132133675223),
        401: (7.50032813672439e-05, 3999.9499981250233, 0.30000937516427784),
    },
    "hann": {
        5: (1.2500000000000002, 0.33333333333333337, 0.4166666666666668),
        45: (0.0068203966530582605, 38.734701678103676, 0.2641860296825485),
        85: (0.0018667447053269674, 141.17358017873866, 0.2635350333307125),
        125: (0.0008562113173187214, 307.63675853919125, 0.26340207428450235),
        165: (0.0004893921881028877, 538.1242363084858, 0.2633537974782053),
        205: (0.00031626185416129066, 832.6360134639851, 0.2633310094595853),
        245: (0.00022105830045329394, 1191.1720900025268, 0.26331847776335665),
        285: (0.00016316884184288042, 1613.7324659234034, 0.2633108575089772),
        325: (0.00012536482035453673, 2100.317141226406, 0.26330588109740255),
        365: (9.932470453564257e-05, 2650.9261159114594, 0.26330245320872425),
        401: (8.22500856856779e-05, 3201.214969099637, 0.26330020550671984),
    },
    "hamming": {
        5: (0.8722798015207707, 0.3974937343358396, 0.34672575569221614),
        45: (0.006177943992941466, 45.413442558863586, 0.2805617046553236),
        85: (0.0018745862604187106, 165.22956482709242, 0.3097370720398301),
        125: (0.0009437077153262744, 359.83948725146513, 0.3395833003982582),
        165: (0.00058732945108143, 629.2432248897227, 0.3695730778711896),
        205: (0.00041051873055391566, 973.4407798499994, 0.39961567321343544),
        245: (0.0003085847322311598, 1392.432152681198, 0.4296833029851849),
        285: (0.00024374959410964158, 1886.2173435776551, 0.4597647118996198),
        325: (0.0001995499527717757, 2454.7963526224735, 0.4898544962301419),
        365: (0.00016782483941408459, 3098.1691798560964, 0.5199497450870155),
        401: (0.00014622194105141538, 3741.153438935871, 0.5470387176123808),
    },
    "blackman": {
        5: (2.2782297577854678, 0.1877842755035738, 0.42781572449642646),
        45: (0.009269079392316755, 27.321857067439897, 0.253248462303631),
        85: (0.002534464132932971, 99.57800768127208, 0.252376888897108),
        125: (0.0011622384399205367, 216.99425255327154, 0.25219906155923727),
        165: (0.0006642624960535096, 379.570591613061, 0.25213450861339926),
        205: (0.00042925425708360447, 587.3070248570551, 0.2521040406349972),
        245: (0.00030003120747252167, 840.203552284751, 0.25208728631469585),
        285: (0.0002214582433993392, 1138.2601738960357, 0.25207709864244243),
        325: (0.00017014807820649717, 1481.4768896908768, 0.2520704456882415),
        365: (0.00013480512568728908, 1869.853699669262, 0.25206586300075734),
        401: (0.00011163079380791975, 2258.004709176734, 0.2520628581074198),
    },
    "gaussian": {
        0.3: (16727.623780293776, 2.9889783623693927e-05, 0.499985055331538),
        2.5286665700876174: (0.08133503356834794, 3.1970773113393376, 0.2600343904383886),
        21.31384874226226: (0.0011012483454458425, 227.14007410401723, 0.25013763079149504),
        50.0: (0.00020002000133316651, 1250.0, 0.25002500166645814),
    },
    "three_tap": {
        0.05: (99.50251256281399, 0.005000000000000002, 0.49751256281407014),
        0.5499999999999999: (1.0922690658018626, 0.6049999999999999, 0.6608227848101267),
        0.65: (2.8175224279442657, 0.8450000000000001, 2.3808064516129046),
    },
}


def test_pins_cover_each_grid():
    # the first point, every 10th and the last
    for name, fam in FAMILIES.items():
        n = len(fam.params)
        assert list(PINS[name]) == [fam.params[i] for i in sorted({*range(0, n, 10), n - 1})]


@pytest.mark.parametrize("name", sorted(PINS))
def test_scan_values(name):
    points = {p.param: p for p in spread_scan(FAMILIES[name])}
    for param, (dwp2, dn2, eta_p) in PINS[name].items():
        got = points[float(param)]
        wide = REL + 128 * EPS * (1.0 + dwp2) / dwp2
        assert got.error is None, (name, param)
        assert got.delta_n2 == pytest.approx(dn2, rel=REL), (name, param)
        assert got.delta_wp2 == pytest.approx(dwp2, rel=wide), (name, param)
        assert got.eta_p == pytest.approx(eta_p, rel=wide + REL), (name, param)


# Harris (Proc. IEEE 66(1), 1978): sum_j (-1)^j a_j cos(2 pi j n / (M - 1))
COSINE_SUMS = {"rectangular": (1.0,), "hann": (0.5, 0.5), "hamming": (0.54, 0.46),
               "blackman": (0.42, 0.5, 0.08)}


def _harris(name, taps):
    n = np.arange(taps, dtype=float)
    half = (taps - 1) / 2.0
    if name == "triangular":  # Bartlett's, zero at both ends
        return 1.0 - np.abs(n - half) / half
    first, *rest = COSINE_SUMS[name]
    w = np.full(taps, first)
    for j, a in enumerate(rest, 1):
        w = w + (-1.0) ** j * a * np.cos(2.0 * np.pi * j * n / (taps - 1))
    return w


def _gaussian(width):
    half = gaussian_auto_taps(width) // 2
    k = np.arange(-half, half + 1, dtype=float)
    return np.exp(-(k * k) / (2.0 * width * width))


def _assert_taps(x, want, offset):
    # tobytes tells -0.0 from 0.0 and compares every bit
    assert x.offset == offset
    assert x.taps.real.tobytes() == want.tobytes()
    assert x.taps.imag.tobytes() == np.zeros(want.size).tobytes()


def test_stock_taps_are_the_normalized_formulas():
    for name in WINDOW_NAMES:
        for taps in FAMILIES[name].params:
            w = _harris(name, taps)
            norm = np.linalg.norm(w)
            assert math.sqrt(w @ w) == norm, (name, taps)
            _assert_taps(standard_windows(name, taps), w / norm, -(taps // 2))
    for width in FAMILIES["gaussian"].params:
        w = _gaussian(width)
        norm = np.linalg.norm(w)
        assert math.sqrt(w @ w) == norm, width
        _assert_taps(sampled_gaussian(width, w.size), w / norm, -(w.size // 2))
    # the closed form is unit energy as it stands; dividing by its rounded
    # norm (0.9999999999999999 at 4 of the 13 stock eps) would move it
    for eps in FAMILIES["three_tap"].params:
        _assert_taps(three_tap(eps), np.array([eps, math.sqrt(1.0 - 2.0 * eps * eps), eps]), -1)
