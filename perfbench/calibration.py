"""A clock in reference seconds, for a machine whose speed drifts.

On the shared 2-core machine this benchmark was written on, the speed of
plain Python code switches between phases about 1.6x apart that last a
few seconds, in CPU time as much as in wall time, because other tenants
share the cores.  While a ``Clock`` is open, a timer signal runs a fixed
pure-Python load every PERIOD_S and records how long it took.  The time
an op spends in the handler is taken out of its latency, and
``reference`` converts a measured interval into seconds at the speed at
which the load takes REFERENCE_S, from the loads timed during and around
that interval.  Interleaved with ops in 3-second windows over 150 s, the
quartile spread of median op times was 37-50% as measured and 4-7%
scaled, for analyze, dynamics and the sweep kernel alike.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time

from workloads import expansion

REFERENCE_S = 0.0025  # time of one load at the reference speed
PERIOD_S = 0.1  # between loads; a load takes about 3% of that
WINDOW_S = 0.5  # loads this close to an interval count for it
MIN_LOADS = 5  # fewer in the window: the nearest ones

_rng = random.Random("calibration")
_FAMILY = [sorted(_rng.sample(range(16), _rng.randint(2, 4))) for _ in range(12)]


def _load():
    """Set building over bitmasks, a frozenset-keyed dict and big-int
    arithmetic: the kinds of work eulerhall's paths do."""
    expansion(_FAMILY)
    counts = {}
    for i in range(3000):
        key = frozenset((i % 97, i % 89, i % 83, i % 7))
        counts[key] = counts.get(key, 0) + 1
    acc = 0
    for i in range(1, 3000):
        s = i * 1234567891 + 77
        acc += s * (s + 1) // 2 + i
    return acc


class Clock:
    """Use as ``with Clock() as clock``; read ``clock.now()`` for times."""

    def __init__(self):
        self.times = []  # now() at each load
        self.loads = []  # seconds each load took
        self._paused = 0.0
        self._busy = False
        self._previous = None

    def now(self):
        """perf_counter() minus the time spent in the timer handler."""
        return time.perf_counter() - self._paused

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()  # the program's garbage is not the load's cost
        try:
            start = time.perf_counter()
            _load()
            took = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.times.append(start - self._paused)
        self.loads.append(took)
        self._paused += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def paused(self):
        """Seconds spent in calibration loads so far."""
        return self._paused

    def speed(self, lo=0, hi=None):
        """Reference seconds per measured second over loads lo..hi-1."""
        loads = self.loads[lo:hi]
        # Work done per second is proportional to 1/load time, so an
        # interval's reference length is its length times the mean of
        # REFERENCE_S / load over loads spread evenly through it.
        return sum(REFERENCE_S / t for t in loads) / len(loads)

    def reference(self, start, end):
        """Seconds at the reference speed for the interval [start, end] of now()."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_LOADS:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - MIN_LOADS // 2, len(self.times) - MIN_LOADS))
            hi = min(len(self.times), lo + MIN_LOADS)
        return (end - start) * self.speed(lo, hi)
