"""Calibration: a fixed kernel that probes how fast this machine runs right now.

On a shared virtual machine the same computation can run 20-40% slower for
tens of seconds when neighbours are busy, which swamps the differences the
benchmark has to resolve.  The kernel below uses none of the program: a
pure-Python loop, many small numpy calls, dict and tuple churn, streaming
float arithmetic, splitmix-style uint64 arithmetic and a sort, the kinds of
work the program's layers do.  It runs before and after every timed
operation; the operation's calibrated time is its wall time scaled by
``KERNEL_REFERENCE_S`` over the mean of the two kernel times.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

from workloads import timed

# Kernel time on the machine where the baseline in README.md was measured,
# so calibrated times read as seconds on that machine.
KERNEL_REFERENCE_S = 0.075

_SIZE = 1 << 20
_RNG = np.random.default_rng(12345)
_FLOATS = _RNG.random(_SIZE)
_WORDS = _RNG.integers(0, 2**63, size=_SIZE, dtype=np.uint64)
_SMALL = np.arange(64, dtype=float)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def kernel() -> float:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    for i in range(1500):
        row = np.exp(-_SMALL * (i % 7 + 1) * 0.01)
        total += float(np.maximum(0.0, row - 0.5).sum())
    table: dict[tuple[int, int], float] = {}
    for i in range(40_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
    total += math.fsum(table.values())
    for _ in range(10):
        total += float((_FLOATS * 3.0 + 1.0).sum())
    with np.errstate(over="ignore"):
        for _ in range(3):
            x = _WORDS ^ (_WORDS >> _S30)
            x = (x * _M1) ^ ((x * _M1) >> _S27)
            x = x * _M2
            total += int(x[-1] ^ (x[-1] >> _S31))
    return total + float(np.sort(_FLOATS)[_SIZE // 2])


def time_kernel() -> float:
    """Seconds for one kernel run, with the cyclic garbage collector off so
    that the program's live objects do not slow the kernel down."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Calibration:
    """A clock for timed operations that pairs each with the kernel around it."""

    def __init__(self):
        self.kernel_s = [time_kernel()]
        self.factors: list[float] = []

    def __call__(self, call):
        """Like ``workloads.timed``, with the seconds calibrated."""
        result, seconds, problems = timed(call)
        self.kernel_s.append(time_kernel())
        factor = KERNEL_REFERENCE_S / statistics.fmean(self.kernel_s[-2:])
        self.factors.append(factor)
        return result, seconds * factor, problems
