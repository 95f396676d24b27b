"""scipy as an independent oracle for a0, ce0 and the ground eigenpair.
scipy is not a runtime dependency; these tests skip where it is not
installed."""

import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal  # noqa: E402
from scipy.special import mathieu_a, mathieu_cem  # noqa: E402

from compactseq.eigen import min_eigenpair  # noqa: E402
from compactseq.cli import _parse_grid  # noqa: E402
from compactseq.mathieu import ce0, char_value_a0  # noqa: E402


@pytest.mark.parametrize("q", np.geomspace(0.1, 1e4, 25).tolist())
def test_a0_matches_scipy_mathieu_a(q):
    want = float(mathieu_a(0, q))
    assert abs(char_value_a0(q) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "q, grid", [(-2.5, "0:3.141592653589793:257:lin"), (7.25, "0:6.283185307179586:64:lin")]
)
def test_ce0_matches_scipy_mathieu_cem(q, grid):
    # the samples of the two ``mathieu --q`` golden cases; scipy takes the
    # angle in degrees and uses the same normalization, mean square 1/2
    thetas = _parse_grid(grid)
    want = mathieu_cem(0, q, np.degrees(thetas))[0]
    assert ce0(q, thetas).values.tolist() == pytest.approx(want.tolist(), rel=1e-13, abs=0.0)


def test_the_even_gap_holds_past_the_dense_check():
    # (a2 - a0)/4 >= max(1, sqrt(q)), on which eigen._climb's one-step
    # landing rests, from q = 1e5, where test_a0_table.py's dense check
    # ends, to 1e11: it tends to 2 sqrt(q) - 3/4 (DLMF 28.8.1)
    for q in np.geomspace(1e5, 1e11, 13).tolist():
        rows = int(math.sqrt(q / 2.0) + 10.0 * q**0.25) + 40
        off = np.full(rows - 1, -q)
        off[0] *= math.sqrt(2.0)
        diag = 4.0 * np.arange(rows, dtype=float) ** 2
        a0, a2 = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 1))
        assert (a2 - a0) / 4.0 >= math.sqrt(q), q


@pytest.mark.parametrize("n", [3, 41, 201, 999])
@pytest.mark.parametrize("lam1", [0.0, 0.3, 10.0, 1e3, 1e5, 1e7, 1e9])
def test_ground_pair_matches_eigh_tridiagonal(n, lam1):
    k = np.arange(-(n // 2), n // 2 + 1, dtype=float)
    off = -lam1 / 2.0
    pair = min_eigenpair(k * k, off)
    w, v = eigh_tridiagonal(k * k, np.full(n - 1, off), select="i", select_range=(0, 0))
    want = v[:, 0] * np.sign(v[:, 0] @ pair.vector)
    assert abs(pair.value - w[0]) <= 1e-9 * (1.0 + abs(w[0]))
    assert np.max(np.abs(pair.vector - want)) <= 1e-9
