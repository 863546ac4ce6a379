"""A fixed reference kernel that gauges the machine's speed at a moment.

The benchmark runs on a shared VM whose speed drifts: the same work takes
up to 40% longer for seconds to minutes at a time, on either core.  Each
job is timed between two runs of this kernel, and its time is scaled by
REF_S over their mean, which gives it in seconds at the speed the kernel
has when it takes REF_S.  Over a minute in which raw job times moved by
20%, the ratio of a job's time to the kernel's stayed within 3%.

The kernel does the kind of work the package does in pure Python:
Fraction sums, dict counting and string sorting.  It runs with the
garbage collector off and leaves nothing behind, so the heap the program
under test keeps cannot make it slower.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# The kernel's usual time on a 2-vCPU x86 VM with CPython 3.11 (its
# median over a minute, which moved between 4.3 and 5.2 ms).
REF_S = 0.0048


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    counts: dict = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    sorted(str(x) for x in range(3000))
    return total


def ref_time() -> float:
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
