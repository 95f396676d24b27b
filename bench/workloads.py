"""Seeded inputs for the three benchmark workloads.

Each workload is a batch of items; one item is one ``compactseq`` CLI
invocation, given to the program as an argv list (and, for ``analyze``, a
sequence file written here).  The batch is drawn from ``--seed`` alone.
Every continuous input is drawn by stratified sampling: k draws take one
point from each of k equal strata of the range.  Where an item has two
such inputs, their strata are paired by a fixed permutation.  The seed
then moves values inside their strata but never the mix of the batch,
which keeps the run-to-run spread of the timings small while every seed
still gives other inputs.

``probe`` items are the inputs with extreme tap scales.  They are run and
checked in every ``spread_analyze`` run, outside the timed passes, and
counted in ``fail_frac``/``wrong_frac``; see README.md for why they are
kept out of the timed passes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

# design_sweep: designs at the default 201 taps, designs on longer grids,
# and curve sweeps (about a quarter of the items) over short grids.
SIGMA2_RANGE = (3e-4, 10.0)
DESIGNS_DEFAULT_TAPS = 69
DESIGNS_WIDE_TAPS = 6
WIDE_TAPS_RANGE = (203, 2001)
CURVES = 25
CURVE_POINTS = (2, 3)

# spread_analyze: one windows scan per family, sequence files, and probes.
WINDOW_FAMILIES = (
    "rectangular", "triangular", "hann", "hamming", "blackman", "gaussian", "three_tap",
)
ANALYZE_FILES = 100
LENGTH_RANGE = (1, 4001)
ZERO_TAU_FILES = 5
ONE_NONZERO_FILES = 2
PROBE_SCALES = (1e-300, 1e-300, 1e160, 1e160)

# mathieu_table: a0 tables over q grids and ce0 samples on theta grids.
Q_RANGE = (1e-2, 1e4)
A0_TABLES = 60
A0_POINTS = (8, 40)
CE0_SAMPLES = 60
THETA_POINTS = (257, 1025)


@dataclass
class Item:
    """One CLI invocation plus what the oracle needs to judge its output."""

    kind: str
    argv: list
    data: dict = field(default_factory=dict)
    probe: bool = False


def _strata(rng: np.random.Generator, k: int, pairing: int | None = None) -> np.ndarray:
    """k draws in [0, 1), the i-th in stratum [i/k, (i+1)/k).

    With ``pairing``, the draws come in the order of a fixed permutation
    (the same for every seed), to pair them with another input's strata.
    """
    u = (np.arange(k) + rng.random(k)) / k
    if pairing is None:
        return u
    return u[np.random.default_rng(pairing).permutation(k)]


def _log_uniform(u, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** np.asarray(u)


def _odd(x: float) -> int:
    n = int(round(x))
    return n if n % 2 else n + 1


def design_sweep(rng: np.random.Generator, workdir: str) -> list[Item]:
    items = []
    sigma2 = _log_uniform(_strata(rng, DESIGNS_DEFAULT_TAPS), *SIGMA2_RANGE)
    for s2 in sigma2:
        items.append(_design(float(s2), 201))
    sigma2 = _log_uniform(_strata(rng, DESIGNS_WIDE_TAPS, pairing=0), *SIGMA2_RANGE)
    taps = _log_uniform(_strata(rng, DESIGNS_WIDE_TAPS), *WIDE_TAPS_RANGE)
    for s2, t in zip(sigma2, taps):
        items.append(_design(float(s2), min(_odd(t), WIDE_TAPS_RANGE[1])))

    # A curve grid is a log span of half a decade to two decades around a
    # stratified centre, clipped to the attainable sigma2 range.
    lo_log, hi_log = (math.log10(v) for v in SIGMA2_RANGE)
    centres = lo_log + (hi_log - lo_log) * _strata(rng, CURVES)
    widths = 0.5 + 1.5 * _strata(rng, CURVES, pairing=0)
    points = np.resize(CURVE_POINTS, CURVES)
    for c, w, p in zip(centres, widths, points):
        start = float(10.0 ** max(lo_log, c - w / 2))
        stop = float(10.0 ** min(hi_log, c + w / 2))
        grid = f"{start!r}:{stop!r}:{int(p)}:log"
        items.append(
            Item("curve", ["curve", f"--grid={grid}", "--taps", "201"],
                 {"start": start, "stop": stop, "points": int(p), "taps": 201})
        )
    return items


def _design(sigma2: float, taps: int) -> Item:
    argv = ["design", f"--sigma2={sigma2!r}", "--taps", str(taps)]
    return Item("design", argv, {"sigma2": sigma2, "taps": taps})


def spread_analyze(rng: np.random.Generator, workdir: str) -> list[Item]:
    items = [Item("windows", ["windows", "--family", f], {"family": f}) for f in WINDOW_FAMILIES]

    lengths = np.floor(_log_uniform(_strata(rng, ANALYZE_FILES), LENGTH_RANGE[0], LENGTH_RANGE[1] + 1))
    lengths = np.minimum(lengths.astype(int), LENGTH_RANGE[1])
    shapes = ["plain"] * ANALYZE_FILES
    long_enough = [i for i, n in enumerate(lengths) if n >= 3]
    picked = rng.choice(long_enough, ZERO_TAU_FILES + ONE_NONZERO_FILES, replace=False)
    for i in picked[:ZERO_TAU_FILES]:
        shapes[i] = "zero_tau"
    for i in picked[ZERO_TAU_FILES:]:
        shapes[i] = "one_nonzero"
    complex_flags = np.resize([True, False], ANALYZE_FILES)
    for i, (n, shape, cplx) in enumerate(zip(lengths, shapes, complex_flags)):
        items.append(_sequence_file(rng, workdir, f"seq{i:03d}", int(n), shape, bool(cplx), 1.0))

    probe_lengths = np.floor(
        _log_uniform(_strata(rng, len(PROBE_SCALES)), LENGTH_RANGE[0], LENGTH_RANGE[1] + 1)
    ).astype(int)
    for i, (n, scale) in enumerate(zip(probe_lengths, PROBE_SCALES)):
        item = _sequence_file(rng, workdir, f"probe{i}", int(n), "plain", i % 2 == 1, scale)
        item.probe = True
        items.append(item)
    return items


def _sequence_file(rng, workdir, name, n, shape, cplx, scale) -> Item:
    taps = rng.normal(size=n) + (1j * rng.normal(size=n) if cplx else 0.0)
    if shape == "zero_tau":  # every other tap zero, so the lag-one sum is exactly 0
        taps[1::2] = 0.0
    elif shape == "one_nonzero":
        keep = int(rng.integers(n))
        taps[np.arange(n) != keep] = 0.0
    taps = np.asarray(taps * scale, dtype=complex)
    offset = int(rng.integers(-1000, 1001))
    if cplx:
        body = [f"{float(t.real)!r} {float(t.imag)!r}" for t in taps]
    else:
        body = [f"{float(t.real)!r}" for t in taps]
    path = os.path.join(workdir, name + ".txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# offset={offset}\n" + "\n".join(body) + "\n")
    return Item("analyze", ["analyze", "--input", path], {"taps": taps, "offset": offset})


def mathieu_table(rng: np.random.Generator, workdir: str) -> list[Item]:
    items = []
    lo = _log_uniform(_strata(rng, A0_TABLES), *Q_RANGE)
    hi = _log_uniform(_strata(rng, A0_TABLES, pairing=0), *Q_RANGE)
    points = np.rint(A0_POINTS[0] + (A0_POINTS[1] - A0_POINTS[0]) * _strata(rng, A0_TABLES, pairing=1))
    signs = np.resize([1.0, -1.0], A0_TABLES)
    for a, b, p, s in zip(lo, hi, points, signs):
        a, b, p = float(min(a, b)), float(max(a, b)), int(p)
        if s > 0:  # log grids need positive endpoints
            grid, data = f"{a!r}:{b!r}:{p}:log", {"start": a, "stop": b, "kind": "log"}
        else:
            grid, data = f"{-a!r}:{-b!r}:{p}:lin", {"start": -a, "stop": -b, "kind": "lin"}
        data["points"] = p
        items.append(Item("a0", ["mathieu", f"--grid={grid}"], data))

    qs = _log_uniform(_strata(rng, CE0_SAMPLES), *Q_RANGE)
    signs = np.resize([1.0, -1.0], CE0_SAMPLES)
    thetas = np.rint(THETA_POINTS[0] + (THETA_POINTS[1] - THETA_POINTS[0]) * _strata(rng, CE0_SAMPLES, pairing=0))
    starts = math.pi * rng.random(CE0_SAMPLES)
    for q, s, m, t0 in zip(qs, signs, thetas, starts):
        q, m, t0 = float(s * q), int(m), float(t0)
        t1 = t0 + math.pi  # one full period of ce0, for the normalization check
        grid = f"{t0!r}:{t1!r}:{m}:lin"
        items.append(
            Item("ce0", ["mathieu", f"--q={q!r}", f"--grid={grid}"],
                 {"q": q, "start": t0, "stop": t1, "points": m})
        )
    return items


WORKLOADS = {
    "design_sweep": design_sweep,
    "spread_analyze": spread_analyze,
    "mathieu_table": mathieu_table,
}


def make_items(workload: str, seed: int, workdir: str) -> list[Item]:
    """The workload's batch for ``seed``, in the order the passes run it."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    items = WORKLOADS[workload](rng, workdir)
    order = rng.permutation(len(items))
    return [items[i] for i in order]
