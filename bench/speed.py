"""The machine's current speed, from a fixed kernel timed between decisions.

The host this benchmark was defined on shares its cores with other tenants:
its speed swings by 1.3x to 1.8x for seconds to minutes at a time, and every
decision of a run slows with it.  Time metrics are therefore reported at a
fixed reference speed.  ``Probe.sample`` times ``kernel`` (pure-Python
integer and ``Fraction`` arithmetic plus small numpy integer array ops, the
instruction mix of the library, none of its code) at most every
``INTERVAL`` seconds of a run; a time measured over a span is multiplied by
``REFERENCE_S`` over the median of the kernel samples taken near that span.  The
kernel's data stay a few KiB, so the program's own working set does not
change its time.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

import numpy as np

# kernel seconds at the reference speed: about its median over many runs on
# the 2-vCPU x86 VM the benchmark was defined on (run medians 7 to 12 ms)
REFERENCE_S = 0.011
INTERVAL = 0.2  # seconds of workload between samples
REACH = 1.0  # seconds either side of a span whose samples set its speed
NEAREST = 3  # samples used at least

_BLOCK = np.arange(64, dtype=np.int64).reshape(8, 8)


def kernel() -> int:
    total = 0
    for i in range(20_000):
        total = (total * 31 + i) % 1_000_003
    q = Fraction(0)
    for i in range(1, 200):
        q += Fraction(i, 3 * i + 1)
    total += q.numerator % 97
    for i in range(500):
        block = (_BLOCK * i + total) % 7
        block[block > 3] = 0
        total += int(block.sum()) + int(np.count_nonzero(block[:, 1:] != block[:, :-1]))
    return total


class Probe:
    """Kernel samples over one run, and the speed scale they give any span."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample
        self.seconds: list[float] = []

    def sample(self):
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= INTERVAL

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel's median time within REACH of [start, end],
        widened to the NEAREST samples when fewer fall there."""
        lo = bisect_left(self.times, start - REACH)
        hi = bisect_right(self.times, end + REACH)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < NEAREST:
                hi += 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def overall(self) -> float:
        """REFERENCE_S over the median of every sample: the run's mean speed."""
        return REFERENCE_S / statistics.median(self.seconds)
