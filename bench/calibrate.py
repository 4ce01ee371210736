"""Machine-speed probe, and rescaling of measured times to reference seconds.

The speed of a shared machine drifts by up to a fifth over tens of
seconds, alike for any Python code, which swamps run-to-run comparison.
calibration_kernel() is fixed work that calls nothing in toricfloer; a
time divided by the kernel's time measured beside it, times CAL_REF_S,
is in reference seconds: seconds on a machine where the kernel takes
CAL_REF_S.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from fractions import Fraction

#: median time of calibration_kernel() on the machine the benchmark was
#: defined on (2 vCPUs, Python 3.11.7)
CAL_REF_S = 0.010


def calibration_kernel() -> list:
    """Fixed pure-Python work of the program's kind (Fractions, dicts,
    sorting) that calls nothing in toricfloer: a probe of machine speed."""
    rng = random.Random(1)
    acc: dict = {}
    for _ in range(600):
        key = (Fraction(rng.randint(1, 40), rng.randint(1, 12)), rng.randint(0, 3))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(rng.randint(-5, 5), rng.randint(1, 9))
    return sorted(acc.items())


def kernel_seconds() -> float:
    """One timed calibration_kernel() with the collector off, so that a
    large program heap cannot slow the probe and hide its own cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def normalised(starts, times, samples) -> list[float]:
    """Job times rescaled to the machine speed at which calibration_kernel()
    takes CAL_REF_S, using the probe samples just before and after each job."""
    at = [t for t, _ in samples]
    out = []
    for start, elapsed in zip(starts, times):
        i = min(max(bisect.bisect_right(at, start), 1), len(samples) - 1)
        local = (samples[i - 1][1] + samples[i][1]) / 2
        out.append(elapsed * CAL_REF_S / local)
    return out
