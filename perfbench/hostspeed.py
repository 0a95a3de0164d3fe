"""Host-speed correction for wall-clock metrics.

The host this benchmark was defined on changes speed by up to 2x for
stretches of 5 to 15 seconds (CPU time tracks wall time, so the cause is
the processor's throughput, not scheduling).  A run therefore times a
fixed reference task every ``INTERVAL_S`` seconds, between operations,
and reports each duration scaled by ``ref_s / reference time measured
next to it``: milliseconds on a host running the reference task at the
speed it had when ``ref_s`` was measured.  The reference tasks never
call the library, so a change to the library moves the corrected
figures exactly as it moves the raw ones; the raw figures are kept in
the report line.

There are two reference tasks, because the host's slow stretches slow
interpreted code more than they slow starting a process: library calls
made in process took as much longer as ``reference()`` did, cold CLI
commands only about 0.6 times as much longer.  ``start_reference()``,
a bare interpreter start, moved one for one with the CLI commands.
"""

import bisect
import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.1
# Median durations of reference() and start_reference() inside timed
# loops on the 2-core host the benchmark was defined on (Python 3.11).
REF_S = 0.0051
START_REF_S = 0.0125


def reference():
    """Time a fixed interpreter-bound task mixing Fraction and int
    arithmetic, like the library's scalar layer."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would time the heap, not the host
    try:
        t0 = time.perf_counter()
        a = Fraction(1, 3)
        s = 0
        for i in range(1, 350):
            a = (a * Fraction(i + 1, i) + Fraction(1, i + 2)) / 2
            s += (i * i) % 7
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def start_reference():
    """Time a bare interpreter start (``python -S -c pass``): process
    creation, loading and initialisation, as at the start of a CLI
    command."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


# (reference task, its duration on the defining host), for timings of
# work done in process and of commands started as new processes.
IN_PROCESS = (reference, REF_S)
PROCESS_START = (start_reference, START_REF_S)


class Clock:
    """Reference timings taken between operations, and the correction
    of a duration from the timings on either side of it."""

    def __init__(self, kind=IN_PROCESS):
        self.reference, self.ref_s = kind
        self.at = []
        self.ref = []

    def tick(self, force=False):
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= INTERVAL_S:
            self.ref.append(self.reference())
            self.at.append(time.perf_counter())

    def factor(self, start, end):
        """ref_s over the median of the two reference times before
        `start` and the two after `end` (one slow sample, such as a
        garbage collection, then cannot skew the correction)."""
        i = bisect.bisect_right(self.at, start)
        j = bisect.bisect_left(self.at, end)
        near = self.ref[max(i - 2, 0):i] + self.ref[j:j + 2]
        return self.ref_s / statistics.median(near or self.ref)
