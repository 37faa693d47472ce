"""Timings scaled to a fixed machine speed.

The benchmark runs on shared machines whose speed for the same Python
work changes by up to 1.7x from one fraction of a second to the next, as
other tenants load the host.  Raw seconds then differ more between runs
than any change worth detecting.  So a ``SpeedMonitor`` thread times a
short fixed loop of the same kind of work as the program (Fraction
arithmetic and dict updates) every PERIOD_S, and each timed interval is
scaled by REFERENCE_S over the loop's mean time near it: the result is
the time the interval would take on a machine where the loop takes
REFERENCE_S.  The monitor's own busy time inside an interval is taken
out first.

The loop must measure the machine, not the program it runs beside.  It
runs with the collector off, and every object it allocates is freed
before it ends, so it neither starts a collection of the program's heap
nor moves the program's next one.  It takes about a tenth of the
interpreter's 5 ms switch interval, so the program does not run inside a
sample.  The factor is the mean of the samples, not their median: a
sample the host stalled is a moment the program was slowed too, and
with the median, `wall_s` spread about twice as much between runs
of one workload.

While a child process runs, the monitor pauses: it would otherwise
compete with the child for a core, and it could only sample the core the
child is not on.  The child is then scaled by the samples taken just
before and just after it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import statistics
import threading
import time
from fractions import Fraction

REFERENCE_S = 0.0005
PERIOD_S = 0.025
CLOSE_SAMPLES = 5
# Exponent-like tuple keys, made once: a tuple the loop made and freed
# would go to a free list without telling the collector, and leave its
# count raised.
_KEYS = [(k % 7, k % 11, k % 13) for k in range(1001)]


def _work():
    """About REFERENCE_S of Fraction arithmetic and updates of a dict
    keyed by tuples, on the machine this was tuned on (a 2.1 GHz Xeon
    vCPU, CPython 3.11)."""
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(1, k)
    terms = {}
    for k in range(600):
        key = _KEYS[k]
        terms[key] = terms.get(key, 0) + k * k
    return acc, terms


class SpeedMonitor:
    """Samples the loop's duration every PERIOD_S while entered."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._lock = threading.Lock()  # samples never overlap, so both lists stay sorted
        self._paused = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self, background=False):
        with self._lock:
            if background and self._paused:
                return
            gc.disable()
            try:
                t0 = time.perf_counter()
                _work()
                t1 = time.perf_counter()
            finally:
                gc.enable()
            self.starts.append(t0)
            self.ends.append(t1)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self._sample(background=True)

    @contextlib.contextmanager
    def paused(self):
        """No background samples inside the block, for child processes."""
        with self._lock:
            self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scaled(self, start, end):
        """(reference seconds, factor) for the interval [start, end]."""
        # A short interval, or one the monitor paused through, still gets
        # close samples; the next interval starts right after them.
        for _ in range(CLOSE_SAMPLES):
            self._sample()
        with self._lock:
            lo = bisect.bisect_left(self.ends, start - 2 * PERIOD_S)
            hi = bisect.bisect_right(self.starts, end + 2 * PERIOD_S)
            spans = list(zip(self.starts[lo:hi], self.ends[lo:hi]))
        busy = sum(max(0.0, min(e, end) - max(s, start)) for s, e in spans)
        factor = REFERENCE_S / statistics.fmean([e - s for s, e in spans])
        return (end - start - busy) * factor, factor
