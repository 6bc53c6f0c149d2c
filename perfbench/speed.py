"""A speed meter that runs inside a trial, so its times can be put on one scale.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every instruction down, by up to about 1.7x, in streaks that last from a
tenth of a second to minutes.  Process CPU time slows down with wall time
(this is not steal time), so neither clock gives figures that two sets of
runs a few minutes apart agree on: the wall times of a 1 s trial ranged from
0.9 s to 1.9 s.

So the trial measures the speed it is given while it works.  Every
``PERIOD_S`` of the process's CPU time a profiling-timer signal interrupts
the program and runs a fixed pure-Python loop (dict, tuple and string work,
like the term layers), timing it with the collector off.  The loop does the
same work on every tick, so its duration follows the machine's speed at
that moment, and the ticks are spread evenly over the span being timed.

``scaled`` puts a span on one scale: the span's wall time, less the time the
loops took inside it, multiplied by the mean of ``REF_S / loop time`` over
the span.  The result is the span's time at the speed where one loop takes
``REF_S``, which is about this machine's typical speed.  A change to rhopi
changes a span's work and so its scaled time; a change in the machine's
speed changes the wall time and the loop times together and so cancels out.
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.002  # CPU time between two ticks
REF_S = 50e-6  # one loop's time at the reference speed
MIN_TICKS = 16  # a span with fewer ticks borrows its neighbours'
# The loop's keys and table are built once, so that a tick leaves the
# collector's allocation count as it found it: the ticks fall at different
# points of every trial, and allocations there would move the program's
# collections from one item to another.
_KEYS = [((i & 7, i & 3), "x%d" % (i % 5)) for i in range(60)]
_TABLE = dict.fromkeys(_KEYS, 0)


def _loop() -> int:
    acc = 0
    for key in _KEYS:
        _TABLE[key] += 1
        acc += len("y%d" % (acc & 31)) + (_TABLE[key] & 1)
    return acc


class SpeedMeter:
    """Loop times, one per tick, in the order they were taken."""

    def __init__(self) -> None:
        self.ticks: list = []

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the loop's time
        t0 = time.perf_counter()
        _loop()
        self.ticks.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> int:
        """A position between ticks, for the start or end of a span."""
        return len(self.ticks)

    def loops_s(self, lo: int, hi: int) -> float:
        """The time the loops took between marks ``lo`` and ``hi``."""
        return sum(self.ticks[lo:hi])

    def rate(self, lo: int, hi: int) -> float:
        """Reference seconds per second of wall time between marks ``lo`` and
        ``hi``.  A short span's speed is read from at least ``MIN_TICKS``
        ticks around it."""
        a, b, n = lo, hi, len(self.ticks)
        while b - a < MIN_TICKS and (a > 0 or b < n):
            a, b = max(0, a - 1), min(n, b + 1)
        return sum(REF_S / t for t in self.ticks[a:b]) / (b - a)

    def scaled(self, seconds: float, lo: int, hi: int) -> float:
        """``seconds`` of wall time between marks ``lo`` and ``hi``, less the
        loops' time, on the reference scale."""
        return (seconds - self.loops_s(lo, hi)) * self.rate(lo, hi)
