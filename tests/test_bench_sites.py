"""Every lookup site the benchmark's traced run wraps still exists.

``bench/run.py`` skips a site that no longer resolves and only lists it
under ``untraced_sites``, so a renamed or moved function would silently
drop its layer from the per-layer metrics.  This reads ``bench/spans.py``
without changing it and checks each ``(module, attribute)`` in ``SITES``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _sites():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SITES


@pytest.mark.parametrize("module, attr, span", _sites())
def test_site_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), span
