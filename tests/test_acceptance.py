"""Acceptance suite.

Each test prints exactly one line, "PASS <criterion>" or "FAIL <criterion>"
(run pytest with -s to watch them).  Tolerances are pinned in the
assertions below, not imported from the code under test.  The criteria:

 1  design at sigma2 = 0.1, 201 taps: eta_p in [0.257, 0.267],
    delta_n2 in [2.57, 2.67], under one second, through the CLI.
 2  the (1, 7, 2) sequence: eta_l in [0.158, 0.160] and < 1/4 by both
    the closed form and independent quadrature.
 3  20 designs, sigma2 log-spaced in [0.02, 10]: duality gap, constraint
    gap and eigen residual all <= 1e-8; sequences symmetric, nonnegative,
    positive on their central rows and exactly 0.0 only where the ground
    state's ratio recurrence puts it below eps^2 of its peak; all inside
    10 seconds.
 4  the same suite clears the analytic lower bound (within 1e-9) and,
    for sigma2 <= 0.1, stays under the asymptotic ceiling + 5e-3.
 5  optimal delta_n2 strictly decreases along that sigma2 grid.
 6  eta_p at sigma2 = 100 lands in [0.45, 0.5]; the bound functions hit
    their 1/4 and 1/2 limits.
 7  characteristic values: eigenvalue route vs large-q series within
    1e-3 relative for q in {25, 50, 100, 500}; below the closed-form
    ceiling on [10, 1000]; ce0 satisfies its ODE to 1e-5.
 8  the designed spectrum equals a scaled ce0(-2*lambda1; w/2) to 1e-8
    relative on a 1024-point grid for sigma2 in {0.05, 0.1, 1}.
 9  tridiagonal minimum eigenpairs match a dense Jacobi oracle to 1e-9
    on 50 random pencils.
10  1000 seeded random sequences: spread-product floor 1/4, modulus
    contraction, shift invariance; three-tap closed form to 1e-12.
11  scanned windows never beat the designed optimum at matched spread
    (slack 1e-6); a tuned Gaussian comes within 0.01 of it at
    delta_wp2 = 0.01.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    a0_upper_bound,
    dtft,
    jacobi_eigh,
    mclachlan_a0,
    modulus,
    random_sequences,
    shift,
    support_taps_hold,
    three_tap_eta_p,
    tridiag_dense,
)

from compactseq.bounds import eta_lower, eta_upper
from compactseq.cli import main as cli_main
from compactseq.design import design_max_compact
from compactseq.eigen import min_eigenpair
from compactseq.mathieu import ce0, char_value_a0
from compactseq.sequence import Sequence
from compactseq.spreads import measure
from compactseq.windows import (
    WINDOW_NAMES,
    WindowFamily,
    sampled_gaussian,
    spread_scan,
    standard_windows,
    three_tap,
)


def check(criterion, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def design_suite():
    grid = [float(s) for s in np.geomspace(0.02, 10.0, 20)]
    t0 = time.perf_counter()
    results = [design_max_compact(s2) for s2 in grid]
    elapsed = time.perf_counter() - t0
    return grid, results, elapsed


def test_criterion_01_reference_design(capsys):
    t0 = time.perf_counter()
    code = cli_main(["design", "--sigma2", "0.1", "--taps", "201"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    obj = json.loads(out)
    ok = (
        code == 0
        and 0.257 <= obj["eta_p"] <= 0.267
        and 2.57 <= obj["delta_n2_opt"] <= 2.67
        and elapsed < 1.0
    )
    with capsys.disabled():
        check(
            "criterion 1: sigma2=0.1 design via CLI",
            ok,
            f"eta_p={obj['eta_p']:.6f} delta_n2={obj['delta_n2_opt']:.6f} t={elapsed:.3f}s",
        )


def test_criterion_02_linear_product_below_quarter():
    s = Sequence(np.array([1.0, 7.0, 2.0]))
    rep = measure(s)
    # independent quadrature route: trapezoid on a dense grid
    w = np.linspace(-np.pi, np.pi, 32769)
    dens = np.abs(dtft(s, w)) ** 2 / (2 * np.pi * 54.0)
    mu_q = float(np.trapezoid(dens * w, w))
    var_q = float(np.trapezoid(dens * (w - mu_q) ** 2, w))
    eta_quad = rep.delta_n2 * var_q
    ok = (
        0.158 <= rep.eta_l <= 0.160
        and 0.158 <= eta_quad <= 0.160
        and rep.eta_l < 0.25
        and eta_quad < 0.25
        and abs(rep.eta_l - eta_quad) < 1e-6
    )
    check(
        "criterion 2: (1,7,2) linear product beats 1/4",
        ok,
        f"closed={rep.eta_l:.6f} quad={eta_quad:.6f}",
    )


def test_criterion_03_suite_certificates(design_suite):
    grid, results, elapsed = design_suite
    worst_dual = max(r.duality_gap for r in results)
    worst_con = max(abs(r.constraint_gap) for r in results)
    worst_eig = max(r.eig_residual for r in results)
    # nonnegative, positive out to the last nonzero row and exactly 0.0
    # past it, where the ground state is below eps^2 of its peak
    positive = all(
        support_taps_hold(r, (int(np.count_nonzero(r.sequence.taps)) + 1) // 2)
        for r in results
    )
    symmetric = all(
        bool(np.all(r.sequence.taps == r.sequence.taps[::-1])) for r in results
    )
    ok = (
        worst_dual <= 1e-8
        and worst_con <= 1e-8
        and worst_eig <= 1e-8
        and positive
        and symmetric
        and elapsed < 10.0
    )
    check(
        "criterion 3: 20-design certificates",
        ok,
        f"dual<={worst_dual:.2e} con<={worst_con:.2e} eig<={worst_eig:.2e} t={elapsed:.2f}s",
    )


def test_criterion_04_suite_vs_bounds(design_suite):
    grid, results, _ = design_suite
    low_ok = all(r.eta_p >= eta_lower(r.sigma2) - 1e-9 for r in results)
    up_ok = all(
        r.eta_p <= eta_upper(r.sigma2) + 5e-3
        for r in results
        if r.sigma2 <= 0.1
    )
    small = [r for r in results if r.sigma2 <= 0.1]
    ok = low_ok and up_ok and len(small) >= 3
    check(
        "criterion 4: suite inside analytic envelope",
        ok,
        f"lower_ok={low_ok} upper_ok={up_ok} small_pts={len(small)}",
    )


def test_criterion_05_monotone_time_spread(design_suite):
    _, results, _ = design_suite
    dn = [r.delta_n2_opt for r in results]
    ok = all(a > b for a, b in zip(dn, dn[1:]))
    check(
        "criterion 5: delta_n2 strictly decreasing in sigma2",
        ok,
        f"first={dn[0]:.4f} last={dn[-1]:.6f}",
    )


def test_criterion_06_extremes():
    eta100 = design_max_compact(100.0).eta_p
    up_small = eta_upper(1e-6)
    low_big = eta_lower(1e6)
    ok = (
        0.45 <= eta100 <= 0.5
        and abs(up_small - 0.25) <= 1e-6
        and abs(low_big - 0.5) <= 1e-3
    )
    check(
        "criterion 6: asymptotic extremes",
        ok,
        f"eta(100)={eta100:.5f} upper(1e-6)={up_small:.8f} lower(1e6)={low_big:.6f}",
    )


def test_criterion_07_characteristic_values():
    series_ok = True
    for q in (25.0, 50.0, 100.0, 500.0):
        # within a few times the first omitted term, about 0.004 q^-3
        series_ok &= abs(char_value_a0(q) - mclachlan_a0(q)) <= 0.02 / q**3
    bound_ok = all(
        char_value_a0(q) <= a0_upper_bound(q) + 1e-6
        for q in np.geomspace(10.0, 1000.0, 15)
    )
    m = 1 << 15
    t = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    h = t[1] - t[0]
    worst_resid = 0.0
    for q in (0.5, 2.0, 10.0, 50.0):
        ev = ce0(q, t)
        y = ev.values
        ypp = (np.roll(y, -1) - 2 * y + np.roll(y, 1)) / (h * h)
        resid = float(np.max(np.abs(ypp + (ev.a0 - 2 * q * np.cos(2 * t)) * y)))
        worst_resid = max(worst_resid, resid)
    ok = series_ok and bound_ok and worst_resid <= 1e-5
    check(
        "criterion 7: a0 series, ceiling, ODE residual",
        ok,
        f"series_ok={series_ok} bound_ok={bound_ok} ode_resid={worst_resid:.2e}",
    )


def test_criterion_08_spectrum_is_ce0():
    worst = 0.0
    for s2 in (0.05, 0.1, 1.0):
        res = design_max_compact(s2, taps=201)
        w = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
        mag = np.abs(dtft(res.sequence, w))
        curve = ce0(-2.0 * res.lambda1, w / 2.0).values
        scale = float(curve @ mag) / float(curve @ curve)
        rel = float(np.linalg.norm(mag - scale * curve) / np.linalg.norm(mag))
        worst = max(worst, rel)
    ok = worst <= 1e-8
    check(
        "criterion 8: designed spectrum matches scaled ce0",
        ok,
        f"worst_rel={worst:.2e}",
    )


def test_criterion_09_eigen_vs_jacobi():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        lam1 = float(rng.uniform(0.0, 40.0))
        lam2 = float(rng.uniform(-10.0, 10.0))
        k = np.arange(-n, n + 1, dtype=float)
        off = -lam1 / 2.0
        w, _ = jacobi_eigh(tridiag_dense(k * k - lam2, off))
        worst = max(worst, abs(min_eigenpair(k * k, off).value - lam2 - w[0]))
    ok = worst <= 1e-9
    check(
        "criterion 9: tridiagonal kernel vs dense Jacobi",
        ok,
        f"50 pencils, worst |diff|={worst:.2e}",
    )


def test_criterion_10_random_sequence_invariants():
    rng = np.random.default_rng(100)
    seqs = random_sequences(rng, 1000)
    floor_ok = True
    contraction_ok = True
    shift_ok = True
    defined = 0
    for i, s in enumerate(seqs):
        rep = measure(s)
        if rep.eta_p is not None and not math.isinf(rep.eta_p):
            defined += 1
            floor_ok &= rep.eta_p >= 0.25 - 1e-9
            rep_m = measure(modulus(s))
            contraction_ok &= (
                rep_m.eta_p is not None and rep_m.eta_p <= rep.eta_p + 1e-12
            )
        rep2 = measure(shift(s, (-1) ** i * (1 + i % 7)))
        shift_ok &= math.isclose(
            rep2.delta_n2, rep.delta_n2, rel_tol=1e-12, abs_tol=1e-12
        )
        if rep.eta_p is None:
            shift_ok &= rep2.eta_p is None
        elif math.isinf(rep.eta_p):
            shift_ok &= math.isinf(rep2.eta_p)
        else:
            shift_ok &= math.isclose(
                rep2.eta_p, rep.eta_p, rel_tol=1e-12, abs_tol=1e-12
            )
    probe_ok = True
    for eps in np.linspace(0.02, 0.68, 20):
        got = measure(three_tap(float(eps))).eta_p
        probe_ok &= abs(got - three_tap_eta_p(float(eps))) <= 1e-12
    ok = floor_ok and contraction_ok and shift_ok and probe_ok and defined >= 800
    check(
        "criterion 10: random-sequence invariants",
        ok,
        f"floor={floor_ok} contraction={contraction_ok} shift={shift_ok} "
        f"probe={probe_ok} defined={defined}/1000",
    )


def _matched_taps(s2: float) -> int:
    half = max(10, int(math.ceil(6.0 * math.sqrt(0.5 / s2))) + 4)
    return 2 * half + 1


def test_criterion_11_windows_never_beat_the_optimum():
    fams = [
        WindowFamily(
            name,
            (5, 9, 17, 33, 65, 129, 257, 401),
            lambda t, _n=name: standard_windows(_n, int(t)),
        )
        for name in WINDOW_NAMES
    ]
    fams.append(
        WindowFamily(
            "gaussian",
            tuple(float(w) for w in np.geomspace(0.3, 20.0, 10)),
            lambda w: sampled_gaussian(w, _matched_taps(1.0 / (2.0 * w * w))),
        )
    )
    fams.append(
        WindowFamily(
            "three_tap",
            tuple(float(e) for e in np.linspace(0.05, 0.65, 9)),
            three_tap,
        )
    )
    dominated = True
    worst_gap = math.inf
    checked = 0
    for fam in fams:
        for pt in spread_scan(fam):
            if pt.error is not None:
                continue
            opt = design_max_compact(pt.delta_wp2, taps=_matched_taps(pt.delta_wp2))
            margin = pt.eta_p - opt.eta_p
            dominated &= margin >= -1e-6
            worst_gap = min(worst_gap, margin)
            checked += 1

    # tune the Gaussian width to hit delta_wp2 = 0.01, then compare
    lo, hi = 5.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d = measure(sampled_gaussian(mid, _matched_taps(0.01))).delta_wp2
        if d > 0.01:
            lo = mid
        else:
            hi = mid
    width = 0.5 * (lo + hi)
    g = measure(sampled_gaussian(width, _matched_taps(0.01)))
    opt = design_max_compact(0.01, taps=_matched_taps(0.01))
    gauss_gap = g.eta_p - opt.eta_p
    ok = (
        dominated
        and checked >= 50
        and abs(g.delta_wp2 - 0.01) < 1e-6
        and 0.0 <= gauss_gap <= 0.01
    )
    check(
        "criterion 11: window scan dominated by the optimal curve",
        ok,
        f"points={checked} min_margin={worst_gap:.2e} gauss_gap={gauss_gap:.2e}",
    )
