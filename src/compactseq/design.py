"""Design of maximally compact sequences.

Target: among unit-energy sequences on the grid k = -N..N whose periodic
frequency spread equals a prescribed sigma2, find the one with minimal
time spread delta_n2.  Fixing the spread is the scalar constraint
x'Bx = alpha = 1/sqrt(1 + sigma2) on the lag-one form, so the problem is
a minimization of the time-energy form x'Ax over that slice of the unit
sphere.  Its semidefinite relaxation is tight and the dual collapses to
one scalar variable:

    maximize  g(l1) = alpha*l1 + lambda_min(A - l1*B)   over l1 >= 0.

g is concave; its derivative is alpha - b(l1) where b(l1) = x'Bx on the
ground state of A - l1*B, and b is nondecreasing in l1 with b(0) = 0 and
supremum lambda_max(B) = cos(pi/(2N+2)).  The optimizer therefore solves
b(l1) = alpha, which simultaneously drives the duality gap (= l1 *
|b - alpha| for the ground-state primal candidate) to zero.  It takes
safeguarded secant steps in log(l1) on log(b / (b_sup - b)), which is
close to linear in log(l1) for small, large and grid-limited l1 alike;
the first step takes its slope from the line's b, at most 2, the slope
once the grid is too short: near b_sup the line's slope is far too
steep, and a step on it would creep.  Its seed, ``eigen._seed``, is the
root of b = -a0'(q)/2 at q = 2 l1 (lambda_min(l1) = a0(2 l1)/4) on
eigen's a0 table, so a design takes one ground solve up to alpha ~ 0.999
and about 1.46 over a sweep to the grid's reach.  The
optimal sequence is the ground state itself: symmetric, entrywise
positive, and unit norm by construction.

On the grid k = -N..N, A = diag(k^2) and B has zero diagonal and constant
off-diagonal 1/2, so x'Bx is the first trigonometric moment of a unit x.
The dual works with the pencil P(lambda1, lambda2) = A - lambda1*B -
lambda2*I, tridiagonal with diagonal k^2 - lambda2 and off-diagonal
-lambda1/2.  P is positive semidefinite iff lambda2 <= lambda_min(A -
lambda1*B), so the designer runs no PSD test of P: it takes lambda2, the
vector and its residual from the ground eigenpair of
:func:`compactseq.eigen.min_eigenpair`.  The yes/no Sturm test of P at
shift 0 lives in ``tests/helpers.has_eigenvalue_below``, where the tests
check the pencil against dense oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import _check_sigma2, eta_lower, eta_upper
from .eigen import _EPS, _k2_grid, _seed, min_eigenpair
from .sequence import _TINY, Sequence, _check_taps

__all__ = [
    "UnattainableSpreadError",
    "DesignConvergenceError",
    "DesignResult",
    "CurvePoint",
    "design_max_compact",
    "sweep_curve",
    "TAIL_MASS_WARN",
]

TAIL_MASS_WARN = 1e-10
_CONSTRAINT_TOL = 1e-10
_MAX_SOLVES = 100
_DEFAULT_TAPS = 201


class UnattainableSpreadError(RuntimeError):
    """The requested spread needs a longer grid than the given tap count."""


class DesignConvergenceError(RuntimeError):
    """The dual root search could not reach its gap target."""


@dataclass(frozen=True)
class DesignResult:
    """Solution and optimality certificates of one design run.

    ``eta_p`` is the product delta_n2_opt * sigma2.  The three gap fields
    certify the solution: duality_gap compares the primal objective with
    the dual value, constraint_gap is x'Bx - alpha on the returned
    sequence, eig_residual is the ground-state residual norm.  lambda2 and
    eig_residual are the eigensolver's value and residual as it certified
    them, so its one residual bound holds for eig_residual exactly:
    max(1e-10 * (1 + |lambda2|), 100 * eps * ||T||) with
    ||T|| = ((taps - 1)/2)^2 + lambda1, so on long grids the ulp floor, not
    1e-10 * (1 + |lambda2|), bounds it.  tail_mass
    is the energy in the two outermost taps; if it exceeds 1e-10 the grid
    was too short for the requested spread and status says "increase-taps".
    Only that comparison carries meaning.  Below it, the edge taps and
    tail_mass are the rounding noise of inverse iteration, not the ground
    state: at sigma2 = 0.1 on 201 taps the edge tap reads 7.9e-19 and
    tail_mass 1.2e-36, where the true edge amplitude is about 1e-177 (and
    below the smallest subnormal from sigma2 ~ 0.9 on).
    """

    sigma2: float
    alpha: float
    lambda1: float
    lambda2: float
    delta_n2_opt: float
    eta_p: float
    duality_gap: float
    constraint_gap: float
    eig_residual: float
    tail_mass: float
    status: str
    sequence: Sequence


def _ground(k2, lambda1):
    """Ground eigenpair of A - lambda1*B and b, the Rayleigh quotient of B
    at its unit vector.  Both sums are exactly rounded (``math.fsum``), so b
    steps monotonically through the floats next to alpha even where b(l1)
    is flat to rounding near its supremum; a plain dot product adds a few
    ulps of noise there, and the certificate, which then needs b == alpha
    exactly, becomes a matter of luck.  The vector is its mirror image, so
    the sums run over its even half h = v[N:]: each mirrored product
    appears twice, and the doubled half sums round to the same doubles."""
    pair = min_eigenpair(k2, -0.5 * lambda1)
    h = pair.vector[pair.vector.size // 2:]
    h2 = h * h
    h2[1:] *= 2.0
    return pair, 2.0 * math.fsum((h[:-1] * h[1:]).tolist()) / math.fsum(h2.tolist())


def _logit(b, b_sup):
    """G(b) = log(b / (b_sup - b)).  As a function of s = log(l1) it is
    close to a straight line in all three regimes of b(l1): slope 1 while
    b ~ l1, 1/2 while 1 - b ~ 1/(2 sqrt(2 l1)), and 2 once the grid is
    too short and b_sup - b falls as 1/l1^2."""
    return math.log(max(b, _TINY)) - math.log(max(b_sup - b, _TINY))


def _find_root(trial, s, slope):
    """Drive the increasing function f(s) to 0 from the seed s.

    ``trial(s)`` returns f(s) and whether the stopping test holds there;
    ``slope`` is an estimate of f' at the seed.  The search ends at the
    first trial that passes, at an exact zero, once the bracket from f's
    signs is down to rounding in s, or after 100 trials.  Every step follows
    one rule: the first is Newton's on ``slope``, each later one the
    secant's through the last two trials, unless that slope is not positive
    or the point leaves the bracket.  Then it bisects, or, until f has
    changed sign, steps by -2f either way, which assumes f's smallest local
    slope, 1/2 (f' is about 1, 1/2 and 2 in the three regimes of
    ``_logit``), and so lands on or over the root; until then a longer step
    counts as leaving the bracket.

    The secant's s - s0 is never 0: s0 is an end of the bracket, and s lies
    strictly inside it.  A secant point must; the midpoint of a bracket
    wider than 4 ulps does; and so does s0 - 2 f0, since every trial that
    fails the designer's stopping test has |f| of hundreds of ulps of s or
    more.  There |f| >= 4 |b - alpha|, as _logit' >= 4/b_sup, and
    |b - alpha| exceeds the gap target, or, past l1 ~ 1e7, where the target
    is below rounding, is an ulp of alpha or more while _logit' grows as
    sqrt(l1).
    """
    lo, hi = -math.inf, math.inf
    for i in range(_MAX_SOLVES):
        fs, done = trial(s)
        if done or fs == 0.0:
            return
        if i:  # s != s0, as above
            slope = (fs - f0) / (s - s0)
        lo, hi = (s, hi) if fs < 0.0 else (lo, s)
        if hi - lo <= 4.0 * _EPS * max(1.0, abs(s)):
            return
        u = s - 2.0 * fs if math.isinf(hi - lo) else 0.5 * (lo + hi)
        t = s - fs / slope if slope > 0.0 else u
        if not lo < t < hi or (math.isinf(hi - lo) and abs(t - s) > abs(u - s)):
            t = u
        s0, f0, s = s, fs, t


def design_max_compact(sigma2: float, taps: int = _DEFAULT_TAPS) -> DesignResult:
    """Minimal-time-spread sequence with periodic frequency spread sigma2.

    ``taps`` (odd, >= 5 and <= 2**21 + 1, the grid cap that windows and
    the Mathieu evaluator share: ``sequence._check_taps``) fixes the grid
    k = -(taps-1)/2 .. (taps-1)/2; a larger count is refused before the
    grid is built.  It must be large
    enough that alpha = 1/sqrt(1+sigma2) stays below the
    largest eigenvalue cos(pi/(taps+1)) of the lag-one form, otherwise the
    constraint is unattainable and UnattainableSpreadError is raised.
    |x'Bx - alpha| at the solution is at most 1e-10; the search aims for
    1e-9/lambda1 once lambda1 > 1 to keep the duality gap near 1e-9 even
    for large lambda1.  It starts from ``eigen._seed``, the root of b on the
    whole line, then refines lambda1 by secant steps, the first on the
    line's slope capped at 2, inside the bracket that the signs of
    b - alpha give (``_find_root``).
    """
    sigma2 = _check_sigma2(sigma2)
    taps = _check_taps(taps, 5)

    half = (taps - 1) // 2
    alpha = 1.0 / math.sqrt(1.0 + sigma2)
    b_sup = math.cos(math.pi / (taps + 1))
    if alpha >= b_sup:
        raise UnattainableSpreadError(
            f"alpha = {alpha:.12g} >= cos(pi/{taps + 1}) = {b_sup:.12g}: "
            f"taps too few for sigma2 = {sigma2:.6g}"
        )

    k2 = _k2_grid(half)

    def gap_target(l1):
        return min(_CONSTRAINT_TOL, 1e-9 / max(1.0, l1))

    g_alpha = _logit(alpha, b_sup)
    best = None

    def trial(s):
        nonlocal best
        l1 = math.exp(s)
        pair, b = _ground(k2, l1)
        if best is None or abs(b - alpha) < abs(best[2] - alpha):
            best = (l1, pair, b)
        return _logit(b, b_sup) - g_alpha, abs(b - alpha) <= gap_target(l1)

    # G'(s) = l1 b'(l1) (1/b + 1/(b_sup - b)) on the line at b = alpha, at
    # most 2, its slope where the grid is too short (``_logit``)
    s, db = _seed(alpha)
    _find_root(trial, s, min(db / alpha + db / (b_sup - alpha), 2.0))
    lambda1, pair, b = best
    gap = abs(b - alpha)
    # Once lambda1 is large the constraint can only be met to rounding in
    # b - alpha (one ulp of alpha), so the certifiable duality gap floors
    # at lambda1 * ulp.  Accept whatever the root search achieved as long
    # as the published certificates still hold; raise only when they cannot.
    if gap > _CONSTRAINT_TOL or lambda1 * gap > 1e-8:
        raise DesignConvergenceError(
            f"constraint gap {b - alpha:.3e} above target at lambda1 = {lambda1!r}"
        )

    v = pair.vector
    a_form = float(v @ (k2 * v))
    tail_mass = float(v[0] ** 2 + v[-1] ** 2)
    return DesignResult(
        sigma2=sigma2,
        alpha=alpha,
        lambda1=lambda1,
        lambda2=pair.value,
        delta_n2_opt=a_form,
        eta_p=a_form * sigma2,
        duality_gap=abs(a_form - (alpha * lambda1 + pair.value)),
        constraint_gap=float(v[:-1] @ v[1:]) - alpha,
        eig_residual=pair.residual,
        tail_mass=tail_mass,
        status="increase-taps" if tail_mass > TAIL_MASS_WARN else "ok",
        sequence=Sequence(v, offset=-half),
    )


@dataclass(frozen=True)
class CurvePoint:
    """One sweep sample: optimum plus the analytic envelope at sigma2, and
    the design's tail_mass and status (NaN and None where it raised)."""

    sigma2: float
    delta_n2: float
    eta_p: float
    eta_lower: float
    eta_upper: float
    tail_mass: float = math.nan
    status: str | None = None
    error: str | None = None


def sweep_curve(sigma2_grid, taps: int = _DEFAULT_TAPS) -> list[CurvePoint]:
    """Run the designer across a sigma2 grid; failures mark their point.

    Points are produced in grid order.  A point whose design raises
    :class:`UnattainableSpreadError` or :class:`DesignConvergenceError`
    keeps the bounds but gets NaN optimal values and the error message, so
    one infeasible sample never aborts a sweep; any other error, such as a
    bad sigma2 or tap count, propagates.
    """
    points = []
    for s2 in sigma2_grid:
        s2 = float(s2)
        lo_b = eta_lower(s2)
        up_b = eta_upper(s2)
        try:
            res = design_max_compact(s2, taps=taps)
        except (UnattainableSpreadError, DesignConvergenceError) as exc:
            points.append(CurvePoint(s2, math.nan, math.nan, lo_b, up_b, error=str(exc)))
        else:
            points.append(CurvePoint(s2, res.delta_n2_opt, res.eta_p, lo_b, up_b,
                                     res.tail_mass, res.status))
    return points
