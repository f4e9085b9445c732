"""Operation time in reference-core seconds.

The cores this benchmark runs on are shared with other tenants, and the
speed of one core swings by up to 2x within seconds.  Raw wall time
therefore says more about the neighbours than about the program.  So
the benchmark runs a fixed calibration kernel between timed intervals
(never inside one, and its own time is excluded) and scales every
interval by ``REFERENCE_S / kernel time``, using the kernel runs that
bracket it.  A change to the program moves these numbers; a neighbour
slowing the core moves program and kernel alike and cancels out.

The kernel is plain interpreter work (tuples, dict updates, string
formatting, a sort), like the program's own hot paths.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

#: Kernel time that defines one reference second: the kernel's typical
#: time on the 2-core Xeon box the bounds were set on.
REFERENCE_S = 0.002

#: Calibrate again once this much timed work has passed.
CALIBRATE_EVERY_S = 0.02

#: Extra calibrations on each side of an interval that its scale uses.
NEIGHBOURS = 2


def kernel() -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 97, i & 15)
        table[key] = table.get(key, 0) + len(str(i))
    return len(sorted(table.items()))


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Clock:
    """A monotonic clock that excludes calibration time, plus the
    calibration samples taken along it."""

    def __init__(self) -> None:
        self._paused = 0.0
        self._times: list[float] = []
        self._samples: list[float] = []

    def now(self) -> float:
        return perf_counter() - self._paused

    @property
    def last(self) -> float:
        """When the latest calibration was taken (``-inf`` before any)."""
        return self._times[-1] if self._times else float("-inf")

    def calibrate(self) -> None:
        t0 = perf_counter()
        sample = kernel_seconds()
        self._paused += perf_counter() - t0
        self._times.append(self.now())
        self._samples.append(sample)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` (times from :meth:`now`) in reference seconds.

        The scale is the median of the calibrations from the last one at
        or before ``start`` to the first one at or after ``end``, widened
        by :data:`NEIGHBOURS` on each side so that one kernel run that
        was itself interrupted does not skew the interval.
        """
        if not self._samples:
            raise RuntimeError("no calibration taken")
        lo = bisect.bisect_right(self._times, start) - 1 - NEIGHBOURS
        hi = bisect.bisect_left(self._times, end) + NEIGHBOURS
        speed = statistics.median(self._samples[max(lo, 0) : hi + 1])
        return (end - start) * REFERENCE_S / speed
