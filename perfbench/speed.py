"""The host's speed, sampled while a workload runs.

The shared host this benchmark was written on changes the speed of the
whole guest by up to 1.8x over tens of seconds (see README, Host speed).
A time measured in seconds then says as much about the host as about the
program.  So the workload process runs a fixed pure-Python kernel from a
timer signal every INTERVAL_S seconds, between bytecodes of the program,
and keeps how long each kernel run took.  A scenario's time is scaled by
REF_KERNEL_S over the median kernel time around it: it is reported in
seconds at the reference speed, the speed at which the kernel takes
REF_KERNEL_S.  The kernel's own time is taken out of the scenario's.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
# the kernel's typical time on the 2-vCPU machine the benchmark was
# written on
REF_KERNEL_S = 0.0016
# kernel times used for a time window: those within PAD_S of it, and
# at least MIN_TICKS of the nearest
PAD_S = 0.5
MIN_TICKS = 8
# kernel runs made back to back by `calibrate`, where no timer runs
CALIBRATE_TICKS = 16

_TABLE = [(i * 7919 + 13) % 4096 for i in range(4096)]
_MAP = {i: (i * 31 + 7) % 4096 for i in range(4096)}


def kernel(n: int = 6000) -> int:
    """Interpreter-bound work that allocates no container object, so it
    never triggers the garbage collector over the program's heap."""
    t, m = _TABLE, _MAP
    x = acc = 0
    for i in range(n):
        x = t[(x + i) & 4095]
        acc = (acc + m[x] * (i | 1)) & 0xFFFFFFFF
    return acc


class SpeedMeter:
    """Runs `kernel` every INTERVAL_S seconds of wall time from SIGALRM
    while started.  `mids` and `durations` hold the midpoint and the
    duration of each kernel run, in time order; `spent` is the total
    time spent running the kernel."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.mids.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrate(self, count: int) -> None:
        """Run the kernel `count` times back to back, as ticks."""
        for _ in range(count):
            self._tick(None, None)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel time around [t0, t1] over REF_KERNEL_S."""
        lo = bisect.bisect_left(self.mids, t0 - PAD_S)
        hi = bisect.bisect_right(self.mids, t1 + PAD_S)
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(self.mids)):
            # widen towards the nearer neighbour
            if lo > 0 and (hi == len(self.mids)
                           or t0 - self.mids[lo - 1] <= self.mids[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.durations[lo:hi]) / REF_KERNEL_S
