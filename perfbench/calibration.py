"""Host-speed calibration of in-process operation times.

The shared host this benchmark was built on changes speed by up to 1.6x
over tens of seconds (other tenants' load); raw times of identical runs a
minute apart differ by 12-29% between their quartiles.  Around each library
operation the benchmark times this fixed kernel, about 10 ms of interpreter
work and strided numpy adds, and scales the operation's time by
``REF_S / calibration``, where the calibration is the mean of the kernel's
times right before and right after the operation: seconds on a host where
the kernel takes REF_S.  On ten runs per workload this cut the spread of
the library workloads' times to 3-10%.

Whole processes (set-up, CLI commands) stay raw: their time is mostly
process start-up, which the kernel does not track, and scaling them raised
the spread of ``cli-session`` from 13% to 19%.  Raw times are printed beside
the normalised ones and kept in the result file.
"""

from __future__ import annotations

import time

REF_S = 0.01  # the kernel's time on the reference host in its fast state


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes right now."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i
    a = np.ones(1 << 18, dtype=np.uint64)
    for d in range(1, 80):
        a[2 * d - 1::d] += a[d - 1]
    return time.perf_counter() - t0


def normalise(seconds: float, cal_s: float) -> float:
    return seconds * REF_S / cal_s
