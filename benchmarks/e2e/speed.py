"""Machine-speed calibration: why the timings are steady on a shared box.

The sandbox this benchmark was sized on (2 shared vCPUs) changes speed
by up to 1.5x for tens of seconds at a time: identical runs of
``cold_bind`` measured ``ttf_ms`` between 211 and 318 ms, and CPU time
moved with wall time, so it is the machine and not the scheduler.  Ten
raw runs spread 19-25% between their quartiles; no bound the contract
allows (at most 0.25) would hold, let alone resolve a 10% regression.

So the run samples the machine's speed between requests with a fixed
pure-Python kernel (heap pushes and pops, dict stores — the operations
the engine itself is made of) and divides every timing of a request by
the speed factor measured around it.  What is reported is therefore
*milliseconds at reference speed*: the kernel taking ``NOMINAL_KERNEL_S``.
On the sizing machine this cut the spread of 10-second windows from
11-21% to 3-7% (``README.md`` has the table).  A change to the program
cannot move the kernel, so it cannot hide in the factor; the raw factor
of every run is printed on its ``detail`` line.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush

#: Kernel time that counts as speed 1.0 (the sizing machine's median).
NOMINAL_KERNEL_S = 0.0070
#: Kernel runs per sample; the sample is their median.
KERNEL_RUNS = 4
#: A new sample is taken between requests once the last one is this old.
SAMPLE_EVERY_S = 0.25


def _kernel() -> float:
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(6000):
        x = (i * 2654435761) % 1000003
        heappush(heap, (x * 0.5, i))
        table[x] = (i, x)
    total = 0.0
    while heap:
        total += heappop(heap)[0]
    return time.perf_counter() - start


class SpeedMeter:
    """Speed factors sampled over a run; >1 means the machine is slow."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._factors: list[float] = []

    def sample(self, force: bool = True) -> None:
        """Take a sample now (unless ``force`` is off and one is fresh)."""
        now = time.perf_counter()
        if not force and self._times and now - self._times[-1] < SAMPLE_EVERY_S:
            return
        kernel = statistics.median(_kernel() for _ in range(KERNEL_RUNS))
        self._times.append(time.perf_counter())
        self._factors.append(kernel / NOMINAL_KERNEL_S)

    def factor(self, start: float, end: float) -> float:
        """Mean of the last sample before ``start`` and the first after ``end``."""
        before = max(0, bisect_right(self._times, start) - 1)
        after = min(len(self._times) - 1, bisect_left(self._times, end))
        return (self._factors[before] + self._factors[after]) / 2.0

    def __len__(self) -> int:
        return len(self._factors)

    def mean(self, since: int = 0) -> float:
        """Mean factor of the samples from index ``since`` on."""
        return statistics.mean(self._factors[since:])
