"""Reference-speed time: measured seconds rescaled by a calibration kernel.

Other tenants of the shared machine this benchmark was written on slow
it by up to a factor of two, for seconds or for whole minutes, and no
choice of run length averages that out.  Measured on that machine, the
same pass took 4.9 s in one run and 9.2 s in the next, while within
every run the pass time divided by the calibration reading taken around
each operation varied by 1-3%.

So every reported time is in reference seconds: measured seconds times
``REFERENCE_S`` over the calibration reading taken around the measured
interval.  On a quiet machine like the reference one, reference seconds
are close to measured seconds.  The kernel is pure Python and
independent of knotcalc, so a change to the program cannot move it;
uncalibrated times are reported alongside.
"""

from __future__ import annotations

import time

# Median time of the kernel on the reference machine (Intel Xeon,
# 2 vCPUs, CPython 3.11.7) when nothing else ran there.
REFERENCE_S = 0.0005


def _kernel() -> int:
    acc: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i
    return len(acc)


def calibrate() -> float:
    """Median of five runs of the kernel: the interpreter's speed on this
    machine at this moment.  (The median follows short slow stretches
    that the fastest run would miss: on the reference machine it halved
    the run-to-run spread of wall_s on braid-invariants.)"""
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - start)
    return sorted(runs)[2]


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibration readings ``before`` and
    ``after``, in reference seconds."""
    return seconds * 2 * REFERENCE_S / (before + after)
