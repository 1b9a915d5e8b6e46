"""Machine-speed calibration for a shared, unpinned CPU.

On a shared machine the speed of one core drifts by half or more over tens of
seconds (other tenants, frequency), and it moves Fraction- and dict-heavy
Python code most.  A workload process therefore runs a fixed kernel of that
kind of work every CAL_EVERY_S seconds between ops, with the cyclic GC held
off so the program's collections are not moved, and scales each op's time by
REFERENCE_S over the kernel's median time around the op.  Time the op spent
in cyclic-GC pauses is left unscaled: walking a large heap is bound by
memory, which the kernel does not track.  A normalized time is the op's time
at the speed where the kernel takes REFERENCE_S, about the fast state of the
machine it was tuned on (Intel Xeon, Python 3.11); raw times are printed
beside it.
"""

import bisect
import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0030
CAL_EVERY_S = 0.05
EDGE_SAMPLES = 5
NEAREST = 3


def kernel():
    """Fixed Fraction and dict work, a few milliseconds long."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 700):
        acc += Fraction(i % 13 + 1, i % 97 + 1) * Fraction(7, i % 11 + 1)
        table[(i % 50, i % 7)] = acc.denominator % 1000
    return len(table)


class Probe:
    def __init__(self):
        self.marks = []      # kernel midpoints
        self.times = []      # kernel durations
        for _ in range(EDGE_SAMPLES):
            self.sample()
        self.last = time.perf_counter()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.marks.append((t0 + t1) / 2)
        self.times.append(t1 - t0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()
            self.last = time.perf_counter()

    def finish(self):
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def normalize(self, start, seconds, gc_seconds=0.0):
        """`seconds` spent from `start`, at the reference speed; the
        `gc_seconds` of it spent in GC pauses are kept as measured."""
        lo = bisect.bisect_left(self.marks, start)
        hi = bisect.bisect_right(self.marks, start + seconds)
        near = self.times[max(0, lo - NEAREST):hi + NEAREST]
        return (seconds - gc_seconds) * REFERENCE_S / statistics.median(near) + gc_seconds


class GcPauses:
    """Running totals of cyclic-GC pause time and gen-2 collections, from
    gc.callbacks."""

    def __init__(self):
        self.total = 0.0
        self.gen2 = 0
        self._start = None
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.total += time.perf_counter() - self._start
            self._start = None
            self.gen2 += info["generation"] == 2
