"""Spans around the calls into each compactseq layer, for the traced run.

The wrappers are installed at the sites where a function is looked up
(``compactseq.design.min_eigenpair``, ``compactseq.spreads.autocorrelation``,
``compactseq.cli.measure``, ...), only for the traced passes, and removed
after each one.  A span records its name, start, end, parent span and item
id; spans live in flat arrays in memory during a pass and are summarized
(or written out) only after it.  A span's self time is its duration minus
the durations of its direct children.

``compactseq.pencil`` has no runtime caller, so no site points into it.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

# (module, attribute looked up there, span name)
SITES = (
    ("compactseq.cli", "design_max_compact", "design.design_max_compact"),
    ("compactseq.cli", "sweep_curve", "design.sweep_curve"),
    ("compactseq.design", "design_max_compact", "design.design_max_compact"),
    ("compactseq.design", "min_eigenpair", "eigen.min_eigenpair"),
    ("compactseq.design", "eta_lower", "bounds.eta_lower"),
    ("compactseq.design", "eta_upper", "bounds.eta_upper"),
    ("compactseq.cli", "char_value_a0", "mathieu.char_value_a0"),
    ("compactseq.cli", "ce0", "mathieu.ce0"),
    ("compactseq.mathieu", "min_eigenpair", "eigen.min_eigenpair"),
    ("compactseq.cli", "read_sequence", "sequence.read_sequence"),
    ("compactseq.cli", "measure", "spreads.measure"),
    ("compactseq.windows", "measure", "spreads.measure"),
    ("compactseq.spreads", "autocorrelation", "sequence.autocorrelation"),
    ("compactseq.cli", "spread_scan", "windows.spread_scan"),
)
ROOT_SPAN = "cli.main"
# Spans whose size (rows of the tridiagonal) is recorded.
SIZED = {"eigen.min_eigenpair": lambda args, kwargs: len(args[0])}


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        self.item = -1
        self._clear()

    def _clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.span_item = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        size_of = SIZED.get(name)
        names, parents, items, sizes = self.name, self.parent, self.span_item, self.size
        starts, ends, stack = self.start, self.end, self._stack
        tracer, clock = self, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.item)
            sizes.append(size_of(args, kwargs) if size_of else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, main):
        """Drop stored spans, wrap every site, and return ``main`` wrapped.

        Sites a module no longer has are skipped and listed in ``missing``.
        """
        self._clear()
        self.missing = []
        for modname, attr, name in SITES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))
        return self.wrap(ROOT_SPAN, main)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def summary(self, item_scale) -> dict:
        """Self time, calls, rows and parent->child call counts per span name.

        Each span's self time is multiplied by ``item_scale[item]``, the
        host-speed scale in force for its item.
        """
        k = len(self.names)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        item = np.array(self.span_item, dtype=np.int64)
        self_time = (dur - child[: name.size]) * np.asarray(item_scale)[item]
        self_s = np.bincount(name, weights=self_time, minlength=k)
        calls = np.bincount(name, minlength=k)
        rows = np.bincount(name, weights=np.array(self.size, dtype=float), minlength=k)
        pair_code = name[parent[has_parent]] * k + name[has_parent]
        pair_calls = np.bincount(pair_code, minlength=k * k)
        pairs = {
            (self.names[c // k], self.names[c % k]): int(pair_calls[c])
            for c in np.flatnonzero(pair_calls)
        }
        return {
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "rows": {n: int(rows[i]) for i, n in enumerate(self.names)},
            "child_calls": pairs,
        }

    def write(self, path: str) -> None:
        """Write the stored spans as JSON lines, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name[i]],
                    "start": self.start[i] - t0,
                    "end": self.end[i] - t0,
                    "parent": self.parent[i],
                    "item": self.span_item[i],
                }) + "\n")
