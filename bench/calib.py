"""The machine's momentary speed, from a fixed piece of pure-Python work.

On a shared virtual machine the speed of the same code drifts by 15-25%
between half-minute windows (neighbours, frequency), far more than the
differences a benchmark should resolve.  The harness runs this loop right
before and after every job and rescales the job's times to a machine on
which the loop takes exactly ``REF_S`` seconds:

    normalized = measured * REF_S / calibration

Measured this way, the ratio of a padicq job to the loop varied about a
third as much as the job's raw time.  The raw times are kept in the
record next to the normalized ones.
"""

import time

REF_S = 0.015
_ITERATIONS = 80_000
_MOD = 5 ** 12


def calibrate() -> float:
    """Seconds this process needs for the fixed loop right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(_ITERATIONS):
        s = (s * 31 + i * i) % _MOD
    return time.perf_counter() - t0
