"""The host-speed kernel that benchmark times are scaled by.

Shared hosts drift in speed by tens of percent over seconds (README.md
gives the figures).  A time multiplied by REF_S over the kernel time
around it reads as it would at the reference speed.
"""

from __future__ import annotations

import time

# Kernel time that times are scaled to (seconds).
REF_S = 0.0015


def calibrate() -> float:
    """Seconds for a fixed integer-and-dict kernel: the host's current speed.

    Median of three timings, so one preemption does not count.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x, acc = 1, {}
        for _ in range(4000):
            x = (x * 6364136223846793005 + 1442695040888963407) % 18446744073709551616
            acc[x % 509] = acc.get(x % 509, 0) + 1
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]
