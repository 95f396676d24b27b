import json
import math

import numpy as np
import pytest

from helpers import jacobi_eigh, support_taps_hold, tridiag_dense

from compactseq.design import (
    CurvePoint,
    DesignConvergenceError,
    DesignResult,
    UnattainableSpreadError,
    _ground,
    design_max_compact,
    sweep_curve,
)
from compactseq.bounds import eta_lower, eta_upper
from compactseq.cli import main
from compactseq.eigen import _residual_bound, _seed, min_eigenpair
from compactseq.spreads import measure


def test_dual_value_at_zero():
    # ground state of plain diag(k^2) is the delta: g(0) = alpha*0 + lambda2
    # = 0 for every alpha, and b(0) = 0
    k = np.arange(-30, 31, dtype=float)
    pair, b = _ground(k * k, 0.0)
    assert pair.value == pytest.approx(0.0, abs=1e-11)
    assert b == pytest.approx(0.0, abs=1e-11)


def test_b_form_nondecreasing():
    k = np.arange(-40, 41, dtype=float)
    bs = [_ground(k * k, l1)[1] for l1 in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bs, bs[1:]))
    assert bs[-1] < math.cos(math.pi / 82)  # capped by the lag-one form's top


def test_weak_duality_fuzz():
    # feasible primal points by mixing two dense eigenvectors so that
    # x'Bx = alpha exactly; each objective must clear the dual value
    res = design_max_compact(0.5, taps=21)
    alpha = res.alpha
    g_opt = alpha * res.lambda1 + res.lambda2

    n = 10
    k = np.arange(-n, n + 1, dtype=float)
    # probe past the optimum so the ground state's x'Bx exceeds alpha:
    # then any mix of it with a higher eigenvector can reach alpha exactly
    lam1_probe = 8.0
    w, v = jacobi_eigh(tridiag_dense(k * k, -lam1_probe / 2.0))
    bmat = np.zeros((2 * n + 1, 2 * n + 1))
    idx = np.arange(2 * n)
    bmat[idx, idx + 1] = 0.5
    bmat[idx + 1, idx] = 0.5
    amat = np.diag(k * k)
    assert float(v[:, 0] @ bmat @ v[:, 0]) > alpha

    rng = np.random.default_rng(33)
    built = 0
    for _ in range(200):
        j = int(rng.integers(1, 2 * n + 1))
        bi = float(v[:, 0] @ bmat @ v[:, 0])
        bj = float(v[:, j] @ bmat @ v[:, j])
        cij = float(v[:, 0] @ bmat @ v[:, j])
        mid = 0.5 * (bi + bj)
        r = math.hypot(0.5 * (bi - bj), cij)
        if r < abs(alpha - mid):
            continue
        phi = math.atan2(cij, 0.5 * (bi - bj))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        theta = 0.5 * (phi + sign * math.acos((alpha - mid) / r))
        x = math.cos(theta) * v[:, 0] + math.sin(theta) * v[:, j]
        assert float(x @ bmat @ x) == pytest.approx(alpha, abs=1e-10)
        assert float(x @ amat @ x) >= g_opt - 1e-9
        built += 1
    assert built >= 100


def test_design_reference_point():
    res = design_max_compact(0.1, taps=201)
    assert 2.57 <= res.delta_n2_opt <= 2.67
    assert 0.257 <= res.eta_p <= 0.267
    assert res.eta_p == pytest.approx(res.delta_n2_opt * 0.1, abs=1e-10)
    assert res.status == "ok"
    assert res.duality_gap <= 1e-8
    assert abs(res.constraint_gap) <= 1e-8
    assert res.eig_residual <= 1e-8
    assert res.tail_mass <= 1e-10
    seq = res.sequence
    assert seq.offset == -100
    # solved on the support, 36 rows of the even half, and zero past it
    assert support_taps_hold(res, 36)
    assert np.all(seq.taps.imag == 0)
    assert np.array_equal(seq.taps, seq.taps[::-1])
    assert math.isclose(float(np.sum(seq.taps.real**2)), 1.0, rel_tol=1e-12)


def test_design_matches_measured_spread():
    for s2 in (0.05, 1.0, 20.0):
        res = design_max_compact(s2)
        rep = measure(res.sequence)
        assert rep.delta_wp2 == pytest.approx(s2, rel=1e-8)
        assert rep.delta_n2 == pytest.approx(res.delta_n2_opt, rel=1e-10)
        assert rep.eta_p == pytest.approx(res.eta_p, rel=1e-8)
        assert rep.mu_n == pytest.approx(0.0, abs=1e-9)
        # the lag-one form the designer reads is the measured trig moment
        assert rep.tau.real == pytest.approx(res.constraint_gap + res.alpha, rel=1e-12)


def test_design_between_bounds():
    for s2 in (0.02, 0.1, 1.0, 10.0):
        res = design_max_compact(s2)
        assert res.eta_p >= eta_lower(s2) - 1e-9
    # the asymptotic ceiling applies at small spreads
    for s2 in (0.02, 0.1):
        assert design_max_compact(s2).eta_p <= eta_upper(s2) + 5e-3


def test_tap_count_insensitivity():
    # once tails vanish the answer must not move when the grid grows
    for s2 in (0.05, 0.3):
        a = design_max_compact(s2, taps=201).eta_p
        b = design_max_compact(s2, taps=401).eta_p
        assert abs(a - b) < 1e-8


def test_unattainable_and_bad_args():
    with pytest.raises(UnattainableSpreadError):
        design_max_compact(1e-9, taps=21)
    with pytest.raises(ValueError):
        design_max_compact(0.0)
    with pytest.raises(ValueError):
        design_max_compact(-0.5)
    with pytest.raises(ValueError):
        design_max_compact(0.1, taps=10)
    with pytest.raises(ValueError):
        design_max_compact(0.1, taps=3)
    for taps in (201.9, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            design_max_compact(0.1, taps=taps)
        with pytest.raises(ValueError, match="integer"):
            sweep_curve([0.1], taps=taps)


def test_short_grid_warns_via_status():
    # feasible but cramped: the optimum leans on the grid ends
    res = design_max_compact(0.02, taps=25)
    assert res.tail_mass > 1e-10
    assert res.status == "increase-taps"


def _cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_sweep_and_csv(capsys):
    pts = sweep_curve(np.geomspace(0.05, 5.0, 5))
    assert [p.sigma2 for p in pts] == pytest.approx(list(np.geomspace(0.05, 5.0, 5)))
    for p in pts:
        assert p.error is None
        assert p.eta_lower - 1e-9 <= p.eta_p
        assert p.eta_lower < p.eta_upper
    dn = [p.delta_n2 for p in pts]
    assert all(a > b for a, b in zip(dn, dn[1:]))
    text = _cli(capsys, "curve", "--grid", "0.05:5:5:log")
    lines = text.strip().splitlines()
    assert lines[0] == "sigma2,delta_n2,eta_p,eta_lower,eta_upper"
    assert len(lines) == 6
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == pytest.approx(0.05)
    assert first[2] == pytest.approx(pts[0].eta_p)


def test_sweep_marks_failures(capsys):
    pts = sweep_curve([0.5, 1e-9], taps=21)
    assert pts[0].error is None
    assert pts[1].error is not None
    assert math.isnan(pts[1].delta_n2)
    text = _cli(capsys, "curve", "--grid", "0.5:1e-9:2:log", "--taps", "21")
    assert "nan" in text.strip().splitlines()[2]


def test_design_json_fields(capsys):
    res = design_max_compact(0.5, taps=31)
    obj = json.loads(_cli(capsys, "design", "--sigma2", "0.5", "--taps", "31"))
    assert obj["sigma2"] == 0.5
    assert obj["alpha"] == pytest.approx(1 / math.sqrt(1.5), rel=1e-15)
    assert obj["status"] == "ok"
    assert len(obj["sequence"]["taps"]) == 31
    assert obj["sequence"]["offset"] == -15
    assert obj["eta_p"] == pytest.approx(res.eta_p, rel=0)


def _sigma2_grid(taps):
    """sigma2 from just above the smallest attainable value for ``taps``
    (where b(l1) is flat to rounding at the solution) up to 1e300."""
    s2_min = 1.0 / math.cos(math.pi / (taps + 1)) ** 2 - 1.0
    near = [s2_min * (1.0 + 10.0**e) for e in range(-9, 0)]
    return near + np.geomspace(2.0 * s2_min, 1e6, 12).tolist() + [1e10, 1e30, 1e100, 1e200, 1e300]


@pytest.mark.parametrize("taps", [5, 21, 201, 1001])
def test_dual_solve_is_robust(taps):
    # every grid point gives a certified design; the two hardest ones are
    # sigma2 = 1e300 at 201 taps, solved at l1 = 1.0000000000000118e-150,
    # a coupling of 5e-151, with b = alpha (1 + 1.2e-14), and
    # sigma2_min * (1 + 1e-9) at 1001 taps, where b is flat to rounding
    # around l1 ~ 9e13 and the gap target asks for b == alpha
    half = (taps - 1) // 2
    for s2 in _sigma2_grid(taps):
        res = design_max_compact(s2, taps)
        assert abs(res.constraint_gap) <= 1e-10
        # min_eigenpair's residual contract, with its ulp floor, on the
        # kernel's own value and residual
        bound = _residual_bound(res.lambda2, half**2 + res.lambda1)
        assert res.eig_residual <= bound
        k = np.arange(-half, half + 1, dtype=float)
        pair = min_eigenpair(k * k, -0.5 * res.lambda1)
        assert (res.lambda2, res.eig_residual) == (pair.value, pair.residual)
        assert res.lambda1 >= 0.0 and res.delta_n2_opt > 0.0
        if s2 >= 1e10:
            assert abs(res.eta_p - eta_lower(s2)) <= 1e-9


def test_residual_floor_bounds_long_grids():
    # on 1001 taps ||T|| = 500^2 + lambda1, so 100 ulps of it (5.6e-9) is
    # looser than 1e-10 * (1 + |lambda2|) (2.4e-9), and the contract takes
    # the looser of the two; with a shift a few ulps below the minimum this
    # certified design's residual (5e-13) is now far inside both
    res = design_max_compact(0.15375687591624407, 1001)
    assert res.status == "ok"
    assert res.eig_residual <= _residual_bound(res.lambda2, 500**2 + res.lambda1)


@pytest.mark.parametrize("taps", [5, 21, 201, 1001])
def test_dual_solve_work_count(monkeypatch, taps):
    # the seeded root search needs a few ground-state solves per design,
    # even next to the unattainable limit (8 at most here)
    import compactseq.design as design

    calls = []
    inner = design.min_eigenpair

    def counting(diag, offdiag):
        calls.append(offdiag)
        return inner(diag, offdiag)

    monkeypatch.setattr(design, "min_eigenpair", counting)
    for s2 in _sigma2_grid(taps):
        if s2 > 1e6:
            continue
        calls.clear()
        design_max_compact(s2, taps)
        assert len(calls) <= 20, s2


@pytest.mark.parametrize("jump", [0.3, 7.0])
def test_root_search_narrows_a_jump_to_rounding(jump):
    # f jumps from -1 to +1e-9 and the stopping test never passes, as where
    # b(l1) is flat to rounding.  Whatever the first slope, a secant through
    # two trials on one side of the jump has slope 0 and bisects, and one
    # across it creeps from the +1e-9 end onto that side again, whence the
    # next secant bisects: either way the bracket narrows to rounding in s
    # (in at most 79 trials here)
    from compactseq.design import _find_root

    for slope in (0.0, math.nan, 1.0, 1e9):
        seen = []

        def trial(s):
            seen.append(s)
            return (1e-9 if s >= jump else -1.0), False

        _find_root(trial, 0.0, slope)
        assert len(seen) < 100
        assert abs(seen[-1] - jump) <= 4.0 * np.finfo(float).eps * max(1.0, jump)


def _counting_solves(monkeypatch):
    import compactseq.design as design

    calls = []
    inner = design.min_eigenpair

    def counting(diag, offdiag):
        calls.append(offdiag)
        return inner(diag, offdiag)

    monkeypatch.setattr(design, "min_eigenpair", counting)
    return calls


@pytest.mark.parametrize("factor", [1e3, 1e-3, 0.0, math.nan])
def test_a_wrong_slope_falls_back_to_bisection(monkeypatch, factor):
    # a first slope 1e3 times too large creeps, 1e-3 times leaves the
    # bracket, 0 and NaN give no step: through the bisection and secant
    # steps each design still ends inside the certificates it publishes,
    # with the same status, within 20 ground solves (12 at most here)
    import compactseq.design as design

    grid = _sigma2_grid(201)
    want = [design_max_compact(s2, 201).status for s2 in grid]
    inner = design._find_root
    monkeypatch.setattr(design, "_find_root",
                        lambda trial, s, slope: inner(trial, s, factor * slope))
    calls = _counting_solves(monkeypatch)
    for s2, status in zip(grid, want):
        calls.clear()
        res = design_max_compact(s2, 201)
        norm_t = 100**2 + res.lambda1
        assert len(calls) <= 20, s2
        assert res.status == status
        assert abs(res.constraint_gap) <= 1e-10
        assert res.duality_gap <= 2e-8 + 1e-15 * norm_t
        assert res.eig_residual <= _residual_bound(res.lambda2, norm_t)


def test_work_near_b_sup_is_bounded(monkeypatch):
    # 300 alpha per grid on 5, 21, 201 and 2001 taps, 250 of them at
    # 1 - alpha/b_sup from 5e-2 to 1e-6, where the line's slope is far too
    # steep.  With one rule for every root-search step, the first slope
    # capped at 2, and the landing test after every Laguerre step: 4,317
    # ground solves, at most 11 per design, 9,929 Laguerre passes, at most 4
    # per climb (5,145, 14 and 14,634 with a cap at half the step before
    # last and a landing on the first step only).  Without the climb's
    # rounding stop, 169 climbs on 5 and 21 taps, where the grid lifts the
    # minimum more than the gap above the start, run to _MAX_CLIMB.  The
    # trials read only exactly rounded sums and the pure-Python kernel, so
    # the counts hold under every BLAS kernel; the statuses, ok up to a
    # pinned alpha and increase-taps above it, have tail masses 1% or more
    # from the threshold.
    import compactseq.design as design
    import compactseq.eigen as eigen

    calls = _counting_solves(monkeypatch)
    passes, climbs = [0], []
    step, climb = eigen._laguerre_step, eigen._climb

    def counting_step(*args):
        passes[0] += 1
        return step(*args)

    def counting_climb(d, b):
        before = passes[0]
        out = climb(d, b)
        climbs.append(passes[0] - before)
        return out

    monkeypatch.setattr(eigen, "_laguerre_step", counting_step)
    monkeypatch.setattr(eigen, "_climb", counting_climb)
    worst = 0
    for taps, ok in ((5, 18), (21, 51), (201, 167), (2001, 298)):
        b_sup = math.cos(math.pi / (taps + 1))
        alphas = np.concatenate([b_sup * np.geomspace(1e-3, 0.95, 50),
                                 b_sup * (1.0 - np.geomspace(5e-2, 1e-6, 250))])
        statuses = []
        for alpha in alphas.tolist():
            before = len(calls)
            statuses.append(design.design_max_compact(1.0 / alpha**2 - 1.0, taps).status)
            worst = max(worst, len(calls) - before)
        assert statuses == ["ok"] * ok + ["increase-taps"] * (300 - ok), taps
    assert len(calls) <= 4400 and worst <= 11
    assert passes[0] <= 10500 and max(climbs) <= 4


@pytest.mark.parametrize("taps", [201, 2001])
def test_newton_work_count(monkeypatch, taps):
    # secant steps from the seed, the root on the line: at most 1.5 ground
    # solves per design on average (1.08 at 201 taps, 1.0 at 2001)
    calls = _counting_solves(monkeypatch)
    grid = np.geomspace(1e-3, 10.0, 25)
    for s2 in grid:
        design_max_compact(float(s2), taps)
    assert len(calls) / grid.size <= 1.5


_EPS = np.finfo(float).eps
_K2_LINE = np.arange(-300.0, 301.0) ** 2  # long enough to be the whole line here


def test_the_seed_is_the_root_up_to_alpha_077():
    # up to alpha = 0.77 the rational seed is within 1e-6 of the lambda1
    # at which a 401-tap design stops (4e-7 at 0.77, 2e-10 up to 0.7)
    alphas = np.concatenate([np.geomspace(1e-6, 0.2, 8, endpoint=False),
                             np.linspace(0.2, 0.77, 12)])
    for alpha in alphas.tolist():
        res = design_max_compact(1.0 / alpha**2 - 1.0, 401)
        assert abs(math.exp(_seed(alpha)[0]) / res.lambda1 - 1.0) <= 1e-6, alpha


def test_the_seed_lies_below_the_root_and_above_the_limits():
    # b at the seed is at most alpha, to rounding, so the seed is at or
    # below the root; it is at least the small-l1 limit alpha (b <= l1)
    # everywhere, and at least the first-order seed max(alpha,
    # 1/(8(1-alpha)^2)) from alpha = 0.2 on; below alpha ~ 0.15 the
    # large-l1 limit lies above the root, and the seed leaves it there
    alphas = np.concatenate([np.geomspace(1e-12, 0.2, 12, endpoint=False),
                             np.linspace(0.2, 0.99, 40), 1.0 - np.geomspace(1e-2, 1e-4, 9)])
    for alpha in alphas.tolist():
        s = _seed(alpha)[0]
        assert _ground(_K2_LINE, math.exp(s))[1] <= alpha * (1.0 + 16.0 * _EPS), alpha
        assert s >= math.log(alpha), alpha
        if alpha >= 0.2:
            assert s >= math.log(max(alpha, 0.125 / (1.0 - alpha) ** 2)), alpha


def test_the_seed_is_the_root_on_the_line_up_to_alpha_099():
    # the seed, b's root from the kernel's a0, is within 1e-9 of the
    # lambda1 at which a 2001-tap design stops (8e-15 at most, measured)
    alphas = np.concatenate([np.geomspace(1e-6, 0.2, 8, endpoint=False),
                             np.linspace(0.2, 0.99, 24)])
    for alpha in alphas.tolist():
        res = design_max_compact(1.0 / alpha**2 - 1.0, 2001)
        assert abs(math.exp(_seed(alpha)[0]) / res.lambda1 - 1.0) <= 1e-9, alpha


def test_the_seed_reads_the_table_at_most_five_times(monkeypatch):
    # Newton from the series guess reaches the root in 1 to 5 reads of the
    # a0 table over 800 alpha evenly spaced in (0, 1) and at 1 - 10^-k and
    # 10^-k (measured: the 90 seeds that take 5 have alpha in [0.568, 0.680],
    # just below the guess's switch at 0.68), so a worse first guess shows
    import compactseq.eigen as eigen

    table, reads = eigen._a0, []

    def counting(q):
        reads.append(q)
        return table(q)

    monkeypatch.setattr(eigen, "_a0", counting)
    alphas = np.linspace(0.0, 1.0, 802)[1:-1].tolist()
    alphas += [1.0 - 10.0**-k for k in range(1, 16)] + [10.0**-k for k in range(1, 308)]
    for alpha in alphas:
        reads.clear()
        _seed(alpha)
        assert 1 <= len(reads) <= 5, alpha


def test_one_ground_solve_per_design_up_to_alpha_099(monkeypatch):
    # the seed passes the stopping test at once on 201 taps (up to about
    # alpha = 0.999, past which the grid's reach moves the root)
    calls = _counting_solves(monkeypatch)
    alphas = np.concatenate([np.geomspace(1e-6, 0.2, 8, endpoint=False),
                             np.linspace(0.2, 0.99, 40)])
    for alpha in alphas.tolist():
        calls.clear()
        design_max_compact(1.0 / alpha**2 - 1.0, 201)
        assert len(calls) == 1, alpha


@pytest.mark.parametrize("above", [1e-2, 1e-8])
def test_a_seed_above_the_root_steps_down_fast(monkeypatch, above):
    # before f changes sign a step is -2f either way: where b -> 1 the
    # slope of G is 1/2, so a step of -f down only halved the distance to
    # the root (3.2 solves per design here from 1% above, up to 8)
    import compactseq.design as design

    grid = _sigma2_grid(201)
    roots = [design_max_compact(s2, 201).lambda1 for s2 in grid]
    inner = design._find_root
    calls = _counting_solves(monkeypatch)
    for s2, root in zip(grid, roots):
        seed = math.log(root * (1.0 + above))
        monkeypatch.setattr(design, "_find_root",
                            lambda trial, s, slope, seed=seed: inner(trial, seed, slope))
        res = design_max_compact(s2, 201)
        assert abs(res.constraint_gap) <= 1e-10
    assert len(calls) / len(grid) <= 4.0


def test_a_search_that_misses_the_root_raises(monkeypatch, capsys):
    # one trial, far from the root: the best design misses its gap target,
    # so the designer raises, and the CLI reports a solver failure
    import compactseq.design as design

    monkeypatch.setattr(design, "_find_root", lambda trial, s, slope: trial(s + 1.0))
    with pytest.raises(DesignConvergenceError, match="constraint gap"):
        design_max_compact(0.1, 201)
    code = main(["design", "--sigma2", "0.1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("compactseq: solver failure: constraint gap") and err.count("\n") == 1


def test_curve_points_carry_the_design_status():
    # the sigma2 = 0.00316 point on 101 taps leans on the grid ends: its
    # design says increase-taps, and so must its curve point
    grid = np.geomspace(1e-5, 1.0, 7)
    pts = sweep_curve(grid, taps=101)
    for p in pts[:3]:  # below the grid's reach
        assert p.error is not None and p.status is None and math.isnan(p.tail_mass)
    for p in pts[3:]:
        res = design_max_compact(p.sigma2, 101)
        assert (p.status, p.tail_mass, p.error) == (res.status, res.tail_mass, None)
    assert [p.status for p in pts[3:]] == ["increase-taps", "ok", "ok", "ok"]
