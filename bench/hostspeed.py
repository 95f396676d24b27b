"""A fixed reference kernel that gauges how fast the host runs right now.

The reference host is a 2-vCPU VM on a shared machine.  Other tenants
slow it by 10-85% (measured with a fixed pure-Python loop), for seconds and
sometimes for minutes.  The slowdown shows in CPU time as much as in wall
time, so no statistic over one run removes it.  The benchmark therefore
times this kernel between items (``SpeedLog``) and scales each item's
timing by (REF_SECONDS / k) ** SENSITIVITY, where k is the median kernel
time sampled around it: timings are reported in *reference-host seconds*,
the time the item takes on the reference host when no other tenant loads
it.

The kernel mixes the three kinds of work the program does: a Python
float recurrence (the Sturm-count and Thomas loops), small numpy calls
(the lag-by-lag autocorrelation), and float formatting and parsing (the
emitters and the sequence reader).  It never changes, so scaled timings
of two program versions compare as their raw timings would on one quiet
host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference host (Intel Xeon at 2.1 GHz, Python
# 3.11, numpy 2.4, one BLAS thread) with no other tenant's load.
REF_SECONDS = 0.85e-3
REPEATS = 3
# Under load the program slows as the kernel time to this power.  Fitted
# on the reference host over 160 s of varying load, with design, measure
# and mathieu calls timed between kernel samples: the exponent 0.8 halved
# the spread of their scaled times relative to 1.0 or 0.6, for all three.
SENSITIVITY = 0.8
# Kernel samples within this many seconds of an interval scale it.  A
# wide window keeps the scale's own noise (and the bias it gives the
# reciprocal) small; the slow episodes it must follow last seconds.
WINDOW_S = 1.0

_DIAG = [float(k * k) for k in range(-150, 151)]
_TAPS = np.exp(1j * np.linspace(0.0, 3.0, 96)) * np.linspace(1.0, 2.0, 96)
_FLOATS = [1.0 / (k + 0.37) for k in range(400)]


def _kernel():
    count = 0
    for shift in (-1.0, 0.5, 2.0, 40.0, 900.0, 1e4):
        piv = 1.0
        for d in _DIAG:
            piv = d - shift - 0.25 / piv
            if piv == 0.0:
                piv = -1e-290
            if piv < 0.0:
                count += 1
    acc = 0j
    for m in range(1, 90):
        acc += complex(np.sum(_TAPS[: _TAPS.size - m] * np.conj(_TAPS[m:])))
    text = "\n".join(f"{v!r} 0.0" for v in _FLOATS)
    total = sum(float(part) for part in text.split())
    return count, acc, total


def sample() -> float:
    """Median kernel time over REPEATS back-to-back runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedLog:
    """Kernel samples taken at least ``every`` seconds apart, with their times."""

    def __init__(self, every: float):
        self.every = every
        self.at: list[float] = []
        self.ref: list[float] = []

    def sample(self, force: bool = False) -> None:
        if force or not self.at or time.perf_counter() - self.at[-1] >= self.every:
            self.ref.append(sample())
            self.at.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """The factor that turns a raw time over [start, end] into
        reference-host seconds, from the kernel samples near it."""
        at = np.asarray(self.at)
        near = (at >= start - WINDOW_S) & (at <= end + WINDOW_S)
        return (REF_SECONDS / float(np.median(np.asarray(self.ref)[near]))) ** SENSITIVITY
