"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its CPUs with other tenants, and their load changes
how fast the same code runs by up to 1.3x for the simulator (1.7x for a
pure arithmetic loop) within seconds.  A fixed kernel, timed right before
and right after each measured operation, tracks that speed; every reported
time is scaled to the speed at which the kernel takes ``REFERENCE_S``.  The
kernel copies float tuples of a few thousand entries, the allocation- and
cache-bound work that dominates the simulator's ledger and records; on the
reference machine it slows with load as the workloads do, where an
arithmetic loop overstates the slowdown.  It calls nothing in ``daydrift``,
so a change to the program does not move it.
"""

from __future__ import annotations

import math
import time

# Best time of kernel() on an unloaded 2-vCPU Intel Xeon, Python 3.11.
REFERENCE_S = 3.0e-3


def kernel() -> tuple:
    items = tuple(float(i) for i in range(8192))
    for i in range(60):
        items = items[1:] + (i * 0.5,)
    return items


def kernel_seconds(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of the kernel."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two kernel timings into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
