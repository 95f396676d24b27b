"""Every lookup site the benchmark's traced run wraps still exists, and the
traced kernel calls keep the shape the benchmark sizes them by.

``bench/run.py`` skips a site that no longer resolves and only lists it
under ``untraced_sites``, so a renamed or moved function would silently
drop its layer from the per-layer metrics.  ``bench/spans.py`` sizes each
``eigen.min_eigenpair`` span by ``len(args[0])``, the 2N + 1 rows of the
diagonal, so a kernel entry called another way would fail only in the
traced bench.  This reads ``bench/spans.py`` without changing it, checks
each ``(module, attribute)`` in ``SITES``, and runs one design and one ce0
under its ``Tracer``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from compactseq import design, mathieu

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("module, attr, span", _spans().SITES)
def test_site_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_traced_solves_record_their_rows():
    # sigma2 = 0.02 on 31 taps leans on the grid's end, so the seed from the
    # infinite line lies below the root and the design takes several solves
    tracer = _spans().Tracer()
    tracer.install(lambda: None)
    try:
        tracer.item = 0
        design.design_max_compact(0.02, 31)
        tracer.item = 1
        mathieu.ce0(7.25, [0.0])
    finally:
        tracer.uninstall()
    assert not tracer.missing
    eig = tracer.names.index("eigen.min_eigenpair")
    rows = [[], []]
    for name, item, size in zip(tracer.name, tracer.span_item, tracer.size):
        if name == eig:
            rows[item].append(size)
    assert len(rows[0]) >= 2 and rows[0] == [31] * len(rows[0])
    assert rows[1] == [2 * mathieu._first_half_len(0.5 * 7.25) + 1]
