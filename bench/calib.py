"""A fixed pure-Python job that gauges the machine's current speed.

The host this benchmark runs on is shared, and the speed at which it runs
Python code drifts by tens of percent over minutes.  The harness
times this job between requests, and ``run.py`` scales each pass's timings
by ``REFERENCE_S / median(job time in that pass)`` so that the drift cancels
out.  The job uses no cobweb code, so no change to the program can move it.
"""

import gc
import time

REFERENCE_S = 0.025  # job time the scaled timings are expressed against

# cobweb's time goes to two kinds of work, interpreter-bound container code
# (posets, DOT, rows) and big-integer arithmetic (F-nomials, Bell numbers),
# and the host's drift slows them by different amounts.  The job does about
# equal time of each.
_X = 3**20000
_Y = 7**14000


def job() -> int:
    d = {}
    for i in range(12000):
        d[(i % 97, i)] = [i * i, str(i)]
    s = 0
    for (a, b), (sq, txt) in sorted(d.items(), key=lambda kv: kv[1][1]):
        s += (a ^ sq) + len(txt)
    for _ in range(3):
        s += (_X * _Y // (_Y + 1)).bit_length()
    return s


def timed() -> float:
    """Seconds one run of ``job`` takes now.

    The cyclic collector is paused, so that the time does not depend on how
    many objects the calling process holds; the job makes no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        job()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()

