"""Machine-speed calibration for the timings the benchmark reports.

The 2-vCPU, 2.1 GHz virtual machine this benchmark was sized on runs its
vCPUs at two speeds that alternate every second or so, and the share of
slow phases drifts over minutes: the same round took 0.9 s in one run and 1.5 s in the next.
To keep figures comparable between runs, every timed operation is
followed by calibration slices, a fixed piece of the benchmark's own work
(an interpreter loop plus small-array numpy, the two kinds of work the
rounds do), and its time is scaled by ``REFERENCE_S`` over the slice time
measured next to it.  A reported time is therefore the time the operation
would take on that machine in a phase where one slice takes
``REFERENCE_S``.  The slices never touch the library, so a change to the
library moves the scaled times in the same proportion as the raw ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# typical slice time on the 2.1 GHz virtual machine the benchmark was sized on
REFERENCE_S = 0.005
# slices after an operation take about this share of the operation's time
SHARE = 0.05
MAX_SLICES = 20

_WAVE = np.linspace(0.0, 1.0, 3000) + 0j


def _slice() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    a = _WAVE
    for _ in range(40):
        a = np.exp(1j * a.real) * 0.5 + a * 0.5
    return time.perf_counter() - start


def factor(busy_s: float) -> float:
    """``REFERENCE_S`` over the median slice time, sampled right after
    ``busy_s`` seconds of timed work."""
    n = min(MAX_SLICES, max(1, round(SHARE * busy_s / REFERENCE_S)))
    return REFERENCE_S / statistics.median(_slice() for _ in range(n))
