"""Machine-speed calibration for a shared, noisy box.

The machines this benchmark runs on change speed by up to 1.6x for tens of
seconds at a time (a busy neighbour on the same cores), which is several times
any regression bound and far longer than an operation, so no statistic taken
inside a 10-second window removes it, and CPU time moves with it.  What does
remove most of it is measuring the machine while the workload runs: between
operations, at most every ``MIN_INTERVAL_S`` per thread, a :class:`Calibrator`
runs a fixed kernel that uses none of the program's code and records its
thread CPU time.  The run's *slowdown* is the median kernel time over the
kernel's reference time; time-based end-to-end metrics are reported divided by
it (rates multiplied), i.e. at the reference machine speed.  The values as
measured and the slowdown are kept in the run's record.

The kernel is an integer loop, tuple-keyed dict updates and NumPy
sort/unique/bincount over 8 000 elements: what the service, the ledger and the
MCMC engines spend their time on.  Workloads whose operations are NumPy passes
over 10^5-element arrays (``analyst_batch``, ``shard_scan``) add the same
passes over 100 000 elements, because a neighbour that fills the shared cache
slows those and leaves the small kernel alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU seconds of one kernel run (small, with large arrays) at the speed the
#: recorded numbers refer to: this box's usual speed when the bounds were set
#: (the median slowdown over those 120 runs was 0.95).
REFERENCE_S = {False: 1.7e-3, True: 7.3e-3}
MIN_INTERVAL_S = 0.2

_TABLE: dict[tuple[int, int], float] = {}
_SMALL = np.random.default_rng(0).random(8_000)
_LARGE = np.random.default_rng(1).random(100_000)
_GATHER = np.random.default_rng(2).integers(0, _LARGE.size, _LARGE.size)


def _kernel(large_arrays: bool) -> None:
    total = 0
    for value in range(20_000):
        total += value
    table = _TABLE
    for value in range(3_000):
        key = (value, value * 7 % 1000)
        table[key] = table.get(key, 0.0) + 1.0
    codes = (_SMALL * 50).astype(np.int64)
    np.sort(_SMALL)
    np.unique(codes)
    np.bincount(codes)
    if large_arrays:
        np.sort(_LARGE)
        _LARGE[_GATHER].sum()
        np.unique((_LARGE * 5000).astype(np.int64))


class Calibrator:
    """Collects kernel timings from any number of threads."""

    def __init__(self, large_arrays: bool = False) -> None:
        self.large_arrays = large_arrays
        self.samples: list[float] = []  # append-only, so threads need no lock
        self._reported = 0

    def tick(self) -> None:
        started = time.thread_time()
        _kernel(self.large_arrays)
        self.samples.append(time.thread_time() - started)

    def ticker(self):
        """A per-thread ``maybe_tick()`` that runs the kernel at most every
        ``MIN_INTERVAL_S`` seconds."""
        last = 0.0

        def maybe_tick() -> None:
            nonlocal last
            now = time.perf_counter()
            if now - last >= MIN_INTERVAL_S:
                last = now
                self.tick()

        return maybe_tick

    @property
    def cpu_seconds(self) -> float:
        """CPU the kernel itself has used: not part of the workload's cost."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """How much slower than the reference the machine ran since the last
        call (or the start)."""
        fresh = self.samples[self._reported :]
        self._reported = len(self.samples)
        return statistics.median(fresh) / REFERENCE_S[self.large_arrays]
