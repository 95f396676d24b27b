"""A design solved on its ground state's support.

The kernel solves the even half only on the rows where Parlett's ratio
bound keeps the ground state above eps^2 of its peak (``eigen._support``,
at least rows 0 and 1), and the taps past them are exact zeros.  These
tests check the taps against that rule, against the ground state's own
ratio recurrence, and the large-sigma2 designs, where the constraint and
eta_p rest on row 1 alone, against the values printed when the whole
half was solved.
"""

import numpy as np
import pytest

from helpers import support_taps_hold

from compactseq import eigen
from compactseq.design import UnattainableSpreadError, design_max_compact

TAPS = (5, 21, 201, 1001, 2001)
SIGMA2 = np.geomspace(1e-3, 1e300, 31).tolist()

# (sigma2, taps): (eta_p, constraint_gap), as printed by the full-half solve
LARGE_SIGMA2 = {
    (1e40, 5): (0.49999999999999967, -3.009265538105056e-36),
    (1e62, 5): (0.4999999999999981, -1.970575965456774e-46),
    (1e70, 5): (0.499999999999994, -6.01372059770744e-50),
    (1e100, 5): (0.49999999999999495, -4.985173066523894e-65),
    (1e300, 5): (0.5000000000000122, 1.2209978482278868e-164),
    (1e40, 21): (0.49999999999999967, -3.009265538105056e-36),
    (1e62, 21): (0.4999999999999981, -1.970575965456774e-46),
    (1e70, 21): (0.4999999999999936, -6.41463530422127e-50),
    (1e100, 21): (0.49999999999999484, -5.103867663345892e-65),
    (1e300, 21): (0.5000000000000121, 1.2074312054697992e-164),
}


def _solved_rows(res):
    """The rows of the even half that the design's solve covers."""
    half_len = (len(res.sequence) - 1) // 2
    return max(eigen._support(0.5 * res.lambda1, half_len + 1, eigen._TAIL), 2)


def test_taps_are_positive_on_the_support_and_zero_past_it():
    zeroed = full = 0
    for taps in TAPS:
        for sigma2 in SIGMA2:
            try:
                res = design_max_compact(sigma2, taps)
            except UnattainableSpreadError:
                continue
            rows = _solved_rows(res)
            assert support_taps_hold(res, rows), (sigma2, taps)
            if rows <= (taps - 1) // 2:
                zeroed += 1
                assert res.tail_mass == 0.0 and res.status == "ok", (sigma2, taps)
            else:
                full += 1
    # both paths run: a support inside the grid and one that fills it
    assert zeroed and full, (zeroed, full)


@pytest.mark.parametrize("sigma2, taps", LARGE_SIGMA2, ids=str)
def test_large_sigma2_designs_keep_their_values(sigma2, taps):
    # alpha = x'Bx ~ 2 v0 v1 and delta_n2 ~ 2 v1^2: both read row 1
    res = design_max_compact(sigma2, taps)
    assert (res.eta_p, res.constraint_gap) == LARGE_SIGMA2[sigma2, taps]
    assert res.status == "ok"
