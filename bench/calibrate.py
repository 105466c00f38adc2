"""Host speed, measured with a fixed piece of work beside the workload.

The benchmark's host is shared, and its speed drifts.  On the 2-vCPU x86
host it was built on, one block of sessions took from 1.8 s to 2.9 s a few
minutes apart, with CPU time equal to wall time: the processor itself ran
slower, not the scheduler.  A fixed pure-Python kernel, independent of
domainlearn and run between the blocks, slows with it, by more: a block's
time went as the kernel's time to a power of 0.45-0.62 (a least-squares fit
of log block time on log kernel time, within one run of each workload), and
0.5-0.7 steadied the figures of runs minutes apart best.  So the end-to-end
timings are reported at a reference host speed: measured seconds divided by
``host_factor`` of the kernel times around them, the kernel's median time
over ``REFERENCE_S`` to the power ``SENSITIVITY``.  A change to domainlearn
moves the blocks and not the kernel, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

# The kernel's median time on the host the baseline was recorded on
# (2 vCPUs of an Intel Xeon at 2.1 GHz, CPython 3.11).  It only sets the
# scale of the normalised figures.
REFERENCE_S = 1.2e-3
# How strongly the workloads follow the kernel's slowdown (see above).
SENSITIVITY = 0.6


def kernel() -> int:
    """Dict and set updates on small ints and tuples, as the simulator does."""
    table: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    for i in range(3000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + 1
        if key & 1:
            seen.add((key, i & 7))
    return len(table) + len(seen)


def calibrate(seconds: float) -> list[float]:
    """Times of the kernel, run back to back for ``seconds`` (at least once)."""
    clock = time.perf_counter
    times = []
    end = clock() + seconds
    while True:
        start = clock()
        kernel()
        stop = clock()
        times.append(stop - start)
        if stop >= end:
            return times


def host_factor(times: list[float]) -> float:
    """How much slower than the reference host this run's host ran the
    workloads, from the kernel's ``times``."""
    return (statistics.median(times) / REFERENCE_S) ** SENSITIVITY
