"""Machine-speed calibration for timings on a shared, noisy machine.

The speed of a shared machine can drift by a third within seconds, which
swamps the differences a benchmark must resolve. So every timing is taken
together with runs of a fixed pure-Python kernel (exact rational
arithmetic, like qtower's), and is reported in reference seconds: wall
seconds times REFERENCE_S over the kernel's time measured around it. On a
machine where the kernel takes REFERENCE_S, reference seconds are wall
seconds.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.002
INTERVAL_S = 0.1  # the worker runs the kernel at least this often,
LONG_S = 0.02  # and right after any command that took longer than this;
WINDOW_S = 0.15  # kernel runs this close to a timing calibrate it


def kernel() -> None:
    for _ in range(3):
        acc, step, n = Fraction(0), Fraction(1, 3), 7
        for i in range(120):
            acc += step * Fraction(i + 1, n)
            n = n * 3 % 1000003


def measure() -> tuple[float, float]:
    """(midpoint, duration) of one run of the kernel, in perf_counter seconds."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


class Calibration:
    """Kernel runs taken during a measurement: (midpoint, duration) pairs
    in perf_counter seconds, in time order."""

    def __init__(self, samples):
        self.mids = [m for m, _ in samples]
        self.durations = [d for _, d in samples]

    def scale(self, start: float, end: float) -> float:
        """The factor that turns wall seconds spent in [start, end] into
        reference seconds, from the mean kernel time near the interval."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if lo == hi:
            raise ValueError("no calibration sample near the interval")
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])
