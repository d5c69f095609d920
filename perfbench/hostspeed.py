"""Host-speed calibration, and burst statistics for latency samples.

A shared host's speed drifts: on a 2-vCPU cloud VM (Python 3.11) the
whole benchmark ran 30% faster for a few minutes and then slowed again,
and every metric moved together. Such drift is larger than any useful
bound. :class:`HostClock` times a fixed pure-Python kernel in short
bursts throughout a run, in the same process as the workload; its
run-average tracks the drift (correlation 0.97 with ``hops_per_s`` over
seven ``incast-d8`` runs). ``run.py`` divides every host-time metric by
the run's *slowness* (kernel time over :data:`REFERENCE_MS`), so the
metrics read as on a reference host where the kernel takes that long.
The kernel shares no code with ``repro``, so no change to the program
can move it.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: kernel time, in ms, that defines the reference host
REFERENCE_MS = 5.0


class Bursts:
    """Samples taken in short bursts spread over the whole run.

    Host speed can also alternate between levels far apart (1.6x on the
    same VM) on a scale of seconds, and a burst of a few milliseconds
    sits inside one level.  The median of all samples jumps between the
    levels from run to run; the mean of the burst medians follows the
    share of time spent at each, which is what a run's wall time pays.
    """

    def __init__(self) -> None:
        self.bursts: list[list[float]] = []

    def start(self) -> None:
        self.bursts.append([])

    def add(self, value: float) -> None:
        self.bursts[-1].append(value)

    def mean_of_medians(self) -> float:
        return statistics.fmean(statistics.median(b) for b in self.bursts if b)

    def quantile(self, pct: int) -> float:
        values = [v for burst in self.bursts for v in burst]
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class _Item:
    __slots__ = ("key", "rank")

    def __init__(self, key: int, rank: int) -> None:
        self.key = key
        self.rank = rank


def kernel_ms() -> float:
    """One run of the calibration kernel: objects, a heap and a dict."""
    started = time.perf_counter()
    heap: list[tuple[int, int, _Item]] = []
    live: dict[int, _Item] = {}
    for i in range(4000):
        item = _Item(i, i & 255)
        heapq.heappush(heap, ((i * 7919) % 1000, i, item))
        live[item.key] = item
        if len(heap) > 64:
            _, _, oldest = heapq.heappop(heap)
            live.pop(oldest.key, None)
    return (time.perf_counter() - started) * 1e3


class HostClock:
    """Times the kernel in bursts, at most every ``INTERVAL_S`` seconds."""

    INTERVAL_S = 0.5
    BURST = 3

    def __init__(self) -> None:
        self.samples = Bursts()
        self._next = 0.0

    def tick(self) -> None:
        """Take a burst if the last one is ``INTERVAL_S`` old."""
        if time.perf_counter() < self._next:
            return
        self.samples.start()
        for _ in range(self.BURST):
            self.samples.add(kernel_ms())
        self._next = time.perf_counter() + self.INTERVAL_S

    def slowness(self) -> float:
        """The run's kernel time over the reference host's (>1: slower)."""
        return self.samples.mean_of_medians() / REFERENCE_MS


def on_reference_host(value: float, unit: str, slowness: float) -> float:
    """``value`` as on the reference host: rates scale up and times down
    by the slowness; other units (memory) are left alone."""
    if unit == "1/s":
        return value * slowness
    if unit in ("s", "ms"):
        return value / slowness
    return value
