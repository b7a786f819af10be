"""Speed of the core the workload runs on, measured while it runs.

On the 2-core reference host each core alternates, within seconds, between
a fast state and a state about 55% slower, independently of the other
core, and the share of time spent slow drifts over minutes.  Raw
wall-time medians of report-all therefore spread by about 20% from one
40 s run to the next.

The harness therefore pins itself, and with it every child, to one core.
A probe thread pinned to the same core times a fixed pure-Python kernel
every PROBE_INTERVAL_S (about 1% of the core).  A sample that took
``dt`` seconds while the kernel took ``k`` seconds on average is reported
as ``dt * PROBE_REF_S / k``: its duration at the reference speed.  The
raw wall times are printed beside the normalised ones.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: Kernel time in the fast state of a core of the reference host (2-core
#: Xeon VM, Python 3.11.7), so normalised seconds read as seconds there.
PROBE_REF_S = 2.0e-4
PROBE_INTERVAL_S = 0.02


def kernel() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Context manager: pins the calling thread and a probe thread to one
    core and samples the kernel time until exit."""

    def __init__(self):
        self.cpu = min(os.sched_getaffinity(0))
        self.starts = []
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        while not self.times:            # one sample before any timing
            time.sleep(PROBE_INTERVAL_S / 4)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        os.sched_setaffinity(0, {self.cpu})   # this thread only (Linux)
        while not self._stop.is_set():
            t0 = time.perf_counter()
            kernel()
            self.times.append(time.perf_counter() - t0)
            self.starts.append(t0)
            self._stop.wait(PROBE_INTERVAL_S)

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean kernel time in [t0, t1], widened by
        one interval each side; the nearest sample if none falls inside."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, t0 - PROBE_INTERVAL_S, 0, n)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_INTERVAL_S, 0, n)
        window = self.times[lo:hi] if hi > lo else [self.times[max(lo, 1) - 1]]
        return PROBE_REF_S / statistics.fmean(window)
