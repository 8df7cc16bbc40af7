"""Host speed, from a fixed reference kernel timed between items.

The benchmark's host is shared: its speed drifts by tens of percent over
seconds and minutes, and a slowdown stretches all code running at that
moment, the reference kernel included.  Dividing an item's time by the
kernel's time around that moment removes most of the drift; comparing
commits still compares the same library work, because the kernel belongs to
the benchmark and never changes.

The kernel is the core of a simultaneous root iteration at degree 128 plus
one dense complex eigenvalue call, the kind of work hadstab spends its time
on; work on arrays of this size tracks the host's slowdowns of small and
large root finds alike better than small-array work does.  It never calls
hadstab.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Kernel time on this kind of host (2 vCPUs, CPython 3.11, NumPy 2.4) when it
# is quiet; a normalized time reads as milliseconds on such a host.
REFERENCE_MS = 4.0
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.5

_ROOTS = np.exp(2j * np.pi * (np.arange(128) + 0.375) / 128)
_MATRIX = (np.random.default_rng(1).standard_normal((64, 64))
           + 1j * np.random.default_rng(2).standard_normal((64, 64)))


def kernel() -> complex:
    acc = 0j
    for _ in range(4):
        diff = _ROOTS[:, None] - _ROOTS[None, :]
        np.fill_diagonal(diff, np.inf)
        acc += (1.0 / diff).sum()
    return acc + np.linalg.eigvals(_MATRIX).sum()


class HostSpeed:
    """Kernel timings, taken at most every SAMPLE_EVERY_S by ``sample``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        if perf_counter() < self._next:
            return
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.seconds.append(perf_counter() - t0)
        self._next = perf_counter() + SAMPLE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the median kernel time within WINDOW_S of
        [start, end] (the nearest few samples when none is that close)."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 3), lo + 3
        return REFERENCE_MS / (1e3 * statistics.median(self.seconds[lo:hi]))

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.seconds)
