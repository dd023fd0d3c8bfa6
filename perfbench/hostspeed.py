"""Host-speed calibration for the benchmark's timings.

On a shared host the same work can take twice as long from one minute
to the next, and CPU seconds drift with wall seconds, so the slowdown
is in execution speed, not scheduling. ``calibrate`` times a fixed
task of the kind the analysis spends its time on (tuple hashing, dict
and set building, set unions) that runs no ``repro`` code, so no
change to the program can move it. The benchmark calibrates before and
after every timed pass and divides the pass's timings by the
*slowdown*, the mean of the two calibrations over ``REFERENCE_S``:
timings read as seconds at the reference host speed.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time

# Calibration seconds at the reference host speed. Fixed once:
# changing it rescales every timing metric against earlier runs.
REFERENCE_S = 0.2


def _task_seconds(_: object = None) -> float:
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(4):
            index = {}
            for i in range(150_000):
                key = ("node", i % 4096, i)
                index.setdefault(key[1], set()).add(key)
            total = 0
            for members in index.values():
                total += len(members | {("root", 0, 0)})
            del index
        return time.perf_counter() - started
    finally:
        gc.enable()


def calibrate(processes: int = 1) -> float:
    """Seconds the fixed task takes now, run in ``processes`` processes
    at once to match a pass that keeps that many cores busy. The cyclic
    collector is paused so the caller's live heap does not change the
    figure."""
    if processes == 1:
        return _task_seconds()
    with multiprocessing.get_context("spawn").Pool(processes) as pool:
        seconds = pool.map(_task_seconds, range(processes))
        pool.close()
        pool.join()
    return statistics.mean(seconds)


def slowdown(before: float, after: float) -> float:
    """Host slowdown over an interval bracketed by two calibrations."""
    return (before + after) / 2.0 / REFERENCE_S
