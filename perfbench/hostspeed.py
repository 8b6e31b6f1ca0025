"""Host-speed scaling of timings on a host shared with other tenants.

On a shared host the same Python code can run 1.75 times slower for tens of
seconds at a time. A timer signal therefore times a fixed reference task,
which does the same kind of work as the simulator (small frozen dataclasses,
dicts, comprehensions), every PERIOD seconds for the life of the process.
An interval is then reported as

    (wall time - time spent in the handler) * REFERENCE_S * mean(1 / reference time)

where the mean is over the samples taken within WINDOW seconds of the
interval: the time the interval would have taken on a host where the
reference task takes REFERENCE_S. The mean is taken over speeds (1 / time)
because work done is speed integrated over time. Measured on a 2-core host
while it was contended, this cut the quartile spread of repeated identical
work from 14-26% to 2-3%.

The handler runs in the main thread, between bytecodes; no thread is started.
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass, replace
from itertools import accumulate

PERIOD = 0.02
WINDOW = 0.1
REFERENCE_S = 1e-3


@dataclass(frozen=True, slots=True)
class _Item:
    key: int
    tag: str
    flag: bool = False


def reference_task() -> int:
    """Fixed object-heavy work; takes about REFERENCE_S on an idle host."""
    total = 0
    for i in range(90):
        item = _Item(i, "x")
        group = {k: _Item(k, "y", k & 1 == 0) for k in range(8)}
        item = replace(item, flag=any(g.flag for g in group.values()))
        total += item.key + max(group) + len([g for g in group.values() if g.key > i % 8])
    return total


class HostSpeed:
    """Samples the reference task from SIGALRM between start() and stop()."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.costs: list[float] = []
        self._spent: list[float] = [0.0]
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_task()
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._spent = [0.0, *accumulate(self.costs)]

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] in seconds at the reference host speed;
        valid after stop()."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        handler = self._spent[hi] - self._spent[lo]
        near = self.costs[
            bisect.bisect_left(self.ends, start - WINDOW):
            bisect.bisect_right(self.ends, end + WINDOW)
        ]
        if not near:
            raise RuntimeError("no host-speed sample near a measured interval")
        return (end - start - handler) * REFERENCE_S * sum(1 / c for c in near) / len(near)
