"""A fixed pure-Python job that measures how fast the machine is running.

On a shared host the speed at which Python runs drifts by tens of
percent over tens of seconds.  The benchmark runs this kernel next to
the work it times, in the same process, and scales host times by
REFERENCE_S over the kernel's time, so that the drift cancels.  The
scale is arbitrary but fixed, so a parent commit and a change are
compared in the same units.
"""

from __future__ import annotations

import gc
import time

# Nominal host seconds of one run of the kernel; the scaled times read as
# host seconds on a machine where the kernel takes this long.
REFERENCE_S = 0.02


def reference_kernel() -> float:
    """Host seconds of a fixed pure-Python job shaped like halo growth:
    breadth-first rings of tuple cells in sets, then a sort.  It imports
    nothing from cubedsim, and runs with the garbage collector off so its
    time does not depend on what the program left in memory."""
    n = 120
    gc.disable()
    try:
        start = time.perf_counter()
        seen = set()
        frontier = {(0, i, 0) for i in range(n)}
        for _ in range(n):
            ring = set()
            for p, i, j in frontier:
                for cell in ((p, i + 1, j), (p, i - 1, j), (p, i, j + 1),
                             (p, i, j - 1)):
                    if cell not in seen and 0 <= cell[1] < n \
                            and 0 <= cell[2] < n:
                        ring.add(cell)
            seen |= ring
            frontier = ring
        sorted(seen, key=lambda c: c[2] * n + c[1])
        return time.perf_counter() - start
    finally:
        gc.enable()
