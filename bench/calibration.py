"""A fixed reference kernel that puts timings on one scale across host load.

On a shared host the same code can run up to twice as slow for seconds or
minutes at a time, in CPU time as well as wall time. `burst()` runs a fixed
mix of interpreter work (dict and tuple churn, like the orbit and cylinder
code) and small numpy int64 sorts, and returns how long it took. The
benchmark runs a burst before and after each invocation and each fresh
set-up interpreter, and `scale()`s every measured time by the bursts taken
next to it: the time then reads as on a host where one burst takes
`REFERENCE_S`. The bursts must sit next to what they scale; one factor for
a whole run, from bursts taken minutes apart, tracks the host far worse.
The kernel never calls the package, so a change to the program moves the
scaled time as much as the raw one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median burst on the reference host (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
REFERENCE_S = 0.14

_LOOPS = 200_000
_SORTS = 160
_ARRAY = 8192  # 64 KiB: stays in L2 and below the allocator's mmap threshold


def burst() -> float:
    """Run the reference kernel once; its wall time in seconds."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(_LOOPS):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + len(tuple(range(i % 5)))
    a = np.arange(_ARRAY, dtype=np.int64)
    for _ in range(_SORTS):
        a = np.sort((a * 3 + 1) % 1_000_003)
    return time.perf_counter() - start


def scale(seconds: float, bursts: list[float]) -> float:
    """`seconds` as on the reference host, given the bursts run next to it."""
    return seconds * REFERENCE_S / statistics.fmean(bursts)
