"""Printed ``analyze`` values, pinned to 1e-13 relative.

The golden digests in ``test_cli_golden.py`` pin every byte of ``analyze``,
so a change to how ``measure`` sums its lag products that moves a last
digit fails there without saying by how much.  These are the
``SpreadReport`` fields of the golden sequence files, taken from the
lag-by-lag autocorrelation; any summation order has to reproduce them to
1e-13 relative, with an absolute floor of 1e-15 for fields that are 0.
"""

import dataclasses
import math

import pytest

from test_cli_golden import SEQ_FILES

from compactseq.sequence import parse_sequence
from compactseq.spreads import SpreadReport, measure

REL = 1e-13
ABS = 1e-15

# file: (mu_n, delta_n2, tau, delta_wp2, mu_wl, delta_wl2, eta_p, eta_l, mu_wp)
REPORTS = {
    "ex1.seq": (
        1.0555555555555556, 0.08950617283950617, 0.3888888888888889 + 0j,
        5.612244897959183, 0.0, 1.7713496151779342, 0.5023305618543713,
        0.1585467248153089, 0.6111111111111112 + 0j,
    ),
    "real.seq": (
        2.2222218086740466, 10.339495270524173, 0.9878496874562595 + 0j,
        0.024750800964323933, 0.0, 0.02444453098008159, 0.25591078951231244,
        0.25274411245873524, 0.012150312543740549 + 0j,
    ),
    "complex.seq": (
        -5.364429061550935e-17, 9.999953857457035,
        0.7553410024616264 - 0.6362149496607622j, 0.025315561907886586,
        0.6999999542390237, 0.025000544572909678, 0.2531544509544628,
        0.25000429214039466, 0.2446589975383736 + 0.6362149496607622j,
    ),
    "sparse.seq": (0.0, 1.0, 0j, math.inf, 0.0, 3.789868133696453, math.inf,
                   3.789868133696453, 1 + 0j),
    "single.seq": (1.0, 0.0, 0j, math.inf, 0.0, 3.289868133696453, None, 0.0, 1 + 0j),
}


def test_every_golden_file_is_pinned():
    assert set(REPORTS) == set(SEQ_FILES)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_fields(name):
    rep = measure(parse_sequence(SEQ_FILES[name]))
    fields = [f.name for f in dataclasses.fields(SpreadReport)]
    for field, want in zip(fields, REPORTS[name], strict=True):
        got = getattr(rep, field)
        if want is None:
            assert got is None, field
        else:
            assert got == pytest.approx(want, rel=REL, abs=ABS), field
