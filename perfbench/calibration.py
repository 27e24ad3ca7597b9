"""Host-speed calibration, so that timings survive drift in CPU speed.

On a shared 2-vCPU host the speed of pure-Python code drifts by up to 2x
from one minute to the next (this loop's time varied 2.1x within four
minutes), and the program's wall and CPU times drift with it. The benchmark
therefore times a fixed loop between consecutive timed invocations, on the
same pinned CPU, and reports times in reference seconds: host seconds times
REFERENCE_S / (the mean loop time on either side). Raw host seconds are
printed beside them.
"""

from __future__ import annotations

import os
import random
from time import perf_counter

# By definition, the reference machine runs one calibration loop in 10 ms.
REFERENCE_S = 0.010


_MASK64 = (1 << 64) - 1


def _loop() -> int:
    # A miniature of the program's per-word work on a wide bus: render and
    # parse a 256-bit hex word, allocate a small object, XOR and count
    # flips, and walk the flipped bits of the low 64 lines.
    rng = random.Random(7)
    words = []
    prev = flips = 0
    for i in range(3000):
        text = format(rng.getrandbits(256), "064X")
        word = (int(text, 16), i)
        words.append(word)
        diff = prev ^ word[0]
        prev = word[0]
        flips += diff.bit_count()
        diff &= _MASK64
        while diff:
            diff &= diff - 1
    return flips + len(words)


def calibrate() -> float:
    """Seconds the loop takes now: the fastest of five runs."""
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor from host seconds to reference seconds for work timed between
    two calibrations."""
    return REFERENCE_S / ((before + after) / 2)


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU, so the
    calibration runs where the timed work runs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
