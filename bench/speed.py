"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the CPU speed one process gets drifts by up to 2x over
tens of seconds as neighbouring tenants come and go, and a whole
25-second run can fall in a slow stretch. So the benchmark times a block
of this reference after every pass. Passes and blocks then sample the
same drifting speed, and the mean pass divided by the mean block (per
reference) is steady. Times ``REFERENCE_S`` it reads as host seconds on
a host where one reference takes ``REFERENCE_S``. A block lasts about
as long as a pass, because a slow host stretches long and short tasks
differently (a short task can fit in one undisturbed time slice).

The reference scans small Python objects and builds sets, as the checker
does. It lives in the benchmark, so no change to capsim can move it.
"""

from __future__ import annotations

import statistics
import time

# about the reference's time on a quiet 2-vCPU host with Python 3.11
REFERENCE_S = 0.045
BLOCK = 20  # references per block, about 1 s


class _Op:
    def __init__(self, tick: int, value: int):
        self.tick, self.value = tick, value


def reference() -> int:
    ops = [_Op(i * 7 % 4000, i) for i in range(8000)]
    found = 0
    for cutoff in range(0, 4000, 20):
        found += len({op.value for op in ops if op.tick <= cutoff})
    return found


def reference_seconds(repeats: int | None = None) -> float:
    """Seconds per reference, timed over a block of ``repeats`` (default ``BLOCK``)."""
    repeats = repeats or BLOCK
    t0 = time.perf_counter()
    for _ in range(repeats):
        reference()
    return (time.perf_counter() - t0) / repeats


def rescale(seconds: list[float], reference_s: list[float]) -> float:
    """Mean seconds over mean seconds per reference, in units of ``REFERENCE_S``."""
    return statistics.fmean(seconds) / statistics.fmean(reference_s) * REFERENCE_S
