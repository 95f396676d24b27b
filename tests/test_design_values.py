"""Printed design and curve values, pinned to 1e-9 relative.

The golden digests in ``test_cli_golden.py`` pin every byte, so a change
to the dual solve that moves the last digits of a result fails there
without saying by how much.  These values were taken from the doubling
and bisection solve, whose constraint tolerance 1e-10 already allows
relative moves of a few 1e-10 in lambda1, lambda2, delta_n2 and eta_p;
any solve that meets the same certificates has to reproduce them to
1e-9 relative.  They cover the designs of the golden ``design`` cases
and every point of the golden ``curve`` grids.
"""

import math

import pytest

from compactseq.cli import _parse_grid
from compactseq.design import design_max_compact, sweep_curve

REL = 1e-9

# (sigma2, taps): (lambda1, lambda2, delta_n2, eta_p)
DESIGNS = {
    (3e-4, 201): (6960475.77268219, -6958572.7968165465, 859.1393570842941, 0.2577418071252882),
    (3e-4, 1001): (5558055.789916992, -5556388.810759701, 833.4583263035502, 0.25003749789106505),
    (1e-3, 201): (500750.5282974243, -500250.2156747467, 250.1249836299378, 0.2501249836299378),
    (1e-3, 1001): (500750.2343673706, -500249.9218986039, 250.12497657247343, 0.25012497657247346),
    (0.1, 201): (57.73404735326767, -52.42449708304228, 2.6227571938266117, 0.2622757193826612),
    (0.1, 1001): (57.73404735326767, -52.42449708304228, 2.622757193880925, 0.2622757193880925),
    (10, 201): (0.3285802777390927, -0.05165830834862687, 0.04741237301417925, 0.4741237301417925),
    (10, 1001): (0.3285802777390927, -0.051658308348626884, 0.04741237301070933, 0.4741237301070933),
}

# (grid, taps): [(delta_n2, eta_p) per grid point, None where the design fails]
CURVES = {
    ("0.01:10:25:log", 201): [
        (25.124766693027354, 0.25124766693027356),
        (18.87204458362855, 0.2516627592101045),
        (14.183119704112286, 0.2522154973994022),
        (10.666862745354255, 0.25295117836234976),
        (8.02996351870048, 0.253929742471536),
        (6.052464511017953, 0.25523031214218544),
        (4.569413321711661, 0.256956994267377),
        (3.4571036461707894, 0.2592462005325594),
        (2.6227571938266117, 0.2622757193826612),
        (1.9967860705335903, 0.2662757020501729),
        (1.5269904738596267, 0.27154157189901523),
        (1.1742079254535973, 0.27844857994001815),
        (0.9090480777111465, 0.28746624281649674),
        (0.709401568503432, 0.2991521609646491),
        (0.5583975839330899, 0.31401003733202293),
        (0.4427996336522387, 0.3320528811703466),
        (0.35241930602832117, 0.35241930602832117),
        (0.28020639706145817, 0.3736612359107207),
        (0.22176350298114234, 0.3943574712494707),
        (0.17435267501088736, 0.4134553490325902),
        (0.13608308055640891, 0.43033248557042586),
        (0.10546386628820224, 0.4447374365179442),
        (0.08121263909707556, 0.4566922309205502),
        (0.06219445175732237, 0.46639259225422824),
        (0.04741237301417925, 0.4741237301417925),
    ],
    ("1e-5:1:7:log", 101): [
        None,
        None,
        None,
        (79.18197506217514, 0.2503953908271262),
        (11.72847205611444, 0.25268227058762527),
        (1.8250015648652784, 0.26787359603183886),
        (0.35241930602617, 0.35241930602617),
    ],
    ("1e-9:0.5:2:log", 21): [
        None,
        (0.6150852902740991, 0.30754264513704954),
    ],
}


@pytest.mark.parametrize("sigma2, taps", DESIGNS, ids=str)
def test_design_values(sigma2, taps):
    res = design_max_compact(sigma2, taps)
    got = (res.lambda1, res.lambda2, res.delta_n2_opt, res.eta_p)
    assert got == pytest.approx(DESIGNS[sigma2, taps], rel=REL)


@pytest.mark.parametrize("grid, taps", CURVES, ids=str)
def test_curve_values(grid, taps):
    points = sweep_curve(_parse_grid(grid), taps)
    assert len(points) == len(CURVES[grid, taps])
    for point, want in zip(points, CURVES[grid, taps]):
        if want is None:
            assert point.error is not None
            assert math.isnan(point.delta_n2) and math.isnan(point.eta_p)
        else:
            assert point.error is None
            assert (point.delta_n2, point.eta_p) == pytest.approx(want, rel=REL)
