"""Wall times rescaled to a reference host speed.

The 2-vCPU hosts this benchmark runs on switch speed by up to 2x on
sub-second scales, and the share of time spent slow differs from run to run,
so raw medians of the same op differ by up to 2x between runs.  A short,
fixed calibration kernel (pure-Python integer arithmetic and small numpy
matrix products, no histq) runs right before and right after each timed
section in the same process; the section's wall time is scaled by
REF_S / (mean calibration time).  The result is the section's wall time on
a host that runs the calibration kernel in REF_S, and a change to histq
moves it in the same proportion as it moves the raw wall time.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.5e-3
_A = np.eye(24) * 0.5


def calibrate() -> float:
    """Wall time of one pass of the calibration kernel, in seconds."""
    start = time.perf_counter()
    s = 0
    for i in range(4000):
        s += i * i
    a = _A
    for _ in range(100):
        a = a @ _A + _A
    return time.perf_counter() - start


def scale(elapsed: float, before: float, after: float) -> float:
    return elapsed * REF_S * 2.0 / (before + after)
