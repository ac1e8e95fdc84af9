"""Machine speed, from a fixed reference computation timed beside each row.

Each vCPU of the reference machine (a shared 2-vCPU Intel Xeon VM)
switches between a fast and a slow phase, about 1.6x apart, on its own:
mostly every fraction of a second, at times holding one phase for tens of
seconds. Thread CPU time follows wall time through these phases, so they
are slower cores (other tenants), not descheduling, and a median over a
12-second run does not remove them: the share of time spent in the fast
phase differs from run to run.

So the benchmark divides a row's wall time by a speed factor sampled right
before and right after the row: the wall time of a fixed reference
computation over its nominal time ``REF_NOMINAL_S``. The reference mixes
interpreter work, libm calls and small numpy calls, as the program's inner
loops do, but no BLAS or LAPACK call. Normalized times are seconds at nominal speed; a change to the program
moves them, a change of machine phase mostly does not.

The OpenBLAS helper threads that the wedge route leaves spinning do not
move the factor: they yield the core. Interleaved passes of blowup-verify
as shipped and under OPENBLAS_NUM_THREADS=1 read 1.010x apart normalized
this way, 1.018x with the factor sampled only after the helper threads went
idle, and 1.080x raw (shipped slower in 11 of 16 pairs, about the machine's
noise).
"""

from __future__ import annotations

import math
import time

import numpy as np

# Wall time of one _reference() call in the slow phase, the usual one, of
# the benchmark's reference machine (2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6). 2000 calls spread across a minute read 0.61 ms at their 5th
# percentile, 0.97 ms at the median and 1.18 ms at the 95th.
REF_NOMINAL_S = 0.0011


def _reference() -> float:
    x = 0.0
    for i in range(4000):
        x += math.sin(i * 1e-3) * 0.5
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(80):
        a = np.sin(a) * 0.9 + 0.1
        x += float(a.sum())
    return x


def reference_times(n: int) -> list[float]:
    """Wall times of n reference calls in a row."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        _reference()
        times.append(time.perf_counter() - t0)
    return times


def sample() -> float:
    """Wall time of one reference call now."""
    return reference_times(1)[0]


class Clock:
    """Wall times normalized by reference samples taken around them."""

    def __init__(self) -> None:
        self.factors: list[float] = []

    def scale(self, wall: float, before: float, after: float) -> float:
        """The wall time at nominal speed."""
        f = 0.5 * (before + after) / REF_NOMINAL_S
        self.factors.append(f)
        return wall / f
