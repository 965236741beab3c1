"""Host-speed yardstick: cell times in units of a fixed reference loop.

The benchmark shares a few cores of a host with other tenants, and their
load slows the whole CPU, not just the share of time it gets: a cell's
process time grows with its wall time, by up to 75% for tens of seconds,
longer than a run. No statistic over one run's executions removes that.

So while cells run, a timer interrupts the program every ``PERIOD``
seconds and times a fixed pure-Python reference loop (attribute reads,
float arithmetic, a heap; about 1 ms on a 2-core x86 VM). Each cell
execution is then expressed in *yardsticks* (unit ``ys``): its time, less
the reference loops that ran inside it, divided by the median reference
time within ``WINDOW`` seconds of the execution. The host's speed cancels;
the program's does not, because the reference loop calls none of its code.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from time import perf_counter

PERIOD = 0.05
WINDOW = 3 * PERIOD
#: The reference loop's median time on the host the bounds were set on (a
#: 2-core x86 VM) when unloaded. ``yardsticks * REFERENCE_S`` is a time in
#: seconds at that host's unloaded speed.
REFERENCE_S = 1.1e-3


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


_rng = random.Random(1)
_ITEMS = [_Item(v, 1.0 - v) for v in (_rng.random() for _ in range(400))]


def reference_loop() -> float:
    """The fixed unit of work; touches nothing of the program."""
    total = 0.0
    heap: list = []
    for _ in range(20):
        for item in _ITEMS:
            total += item.a * item.b
            if item.a > 0.5:
                heappush(heap, item.b)
        while heap:
            total += heappop(heap)
    return total


class Yardstick:
    """Context manager sampling the reference loop on a timer.

    ``starts`` and ``durations`` hold every sample in time order, one
    taken on entry and one on exit included. The timer and the previous
    SIGALRM handler are restored on exit.
    """

    def __init__(self) -> None:
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self) -> "Yardstick":
        reference_loop()  # warm
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reading(self, t0: float, t1: float) -> tuple:
        """``(busy, unit)`` for an execution spanning ``[t0, t1]``:
        seconds of reference loops that ran inside it, and the median
        reference time within ``WINDOW`` of it (the run's median if there
        is none)."""
        inside = slice(bisect_left(self.starts, t0),
                       bisect_right(self.starts, t1))
        busy = sum(self.durations[inside])
        near = self.durations[bisect_left(self.starts, t0 - WINDOW):
                              bisect_right(self.starts, t1 + WINDOW)]
        return busy, statistics.median(near or self.durations)

    def in_units(self, t0: float, t1: float) -> tuple:
        """``(seconds, yardsticks)`` of an execution, reference loops that
        ran inside it removed."""
        busy, unit = self.reading(t0, t1)
        seconds = t1 - t0 - busy
        return seconds, seconds / unit
