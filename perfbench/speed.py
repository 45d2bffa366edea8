"""Timing scaled to a nominal machine speed.

The benchmark runs on shared machines whose speed drifts.  On a shared 2-CPU
x86 VM the same batch took from 6.2 to 8.7 s within one minute while the
process CPU time tracked the wall time, so the drift is the machine's speed,
not scheduling.  A ``Clock`` therefore times a fixed pure-Python loop between
the intervals it measures, at most every ``REF_EVERY_S``: the fastest of
``REF_SAMPLES`` runs of the loop is the machine's current "floor".  Each
interval is scaled by ``REF_NOMINAL_S`` over the mean of the floors taken just
before and just after it, which gives its length on a machine where the loop
takes ``REF_NOMINAL_S``.  The unscaled durations stay in ``Clock.raw``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

REF_ITERATIONS = 50_000
REF_SAMPLES = 8
REF_NOMINAL_S = 0.003
REF_EVERY_S = 0.5


def _reference_loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def floor() -> float:
    """Fastest of REF_SAMPLES timings of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(REF_SAMPLES):
        t = perf_counter()
        _reference_loop(REF_ITERATIONS)
        best = min(best, perf_counter() - t)
    return best


class Clock:
    """Times intervals and scales them by the floors taken around them."""

    def __init__(self):
        self.raw: list[float] = []
        self.floors = [floor()]
        self._before: list[int] = []
        self._last_floor = perf_counter()

    @contextmanager
    def timed(self):
        if perf_counter() - self._last_floor >= REF_EVERY_S:
            self.floors.append(floor())
            self._last_floor = perf_counter()
        self._before.append(len(self.floors) - 1)
        start = perf_counter()
        try:
            yield
        finally:
            self.raw.append(perf_counter() - start)

    def finish(self) -> list[float]:
        """Take the closing floor; return every interval scaled, in order."""
        self.floors.append(floor())
        return [
            raw * 2 * REF_NOMINAL_S / (self.floors[i] + self.floors[i + 1])
            for raw, i in zip(self.raw, self._before)
        ]
