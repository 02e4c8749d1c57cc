"""A probe of the host's speed, sampled while the workload runs.

The host is shared: the CPU time of one and the same round moves by 10-20%
from round to round, and by more from minute to minute, as other tenants
load the machine.  ``SpeedProbe`` runs a fixed calibration kernel from a
``SIGPROF`` handler every INTERVAL_S of process CPU time, so its slices fall
evenly over the work they are taken during, and records each slice's CPU
time.  A stage's CPU time divided by the mean slice time of the same stage
is its cost in slices; times REF_SLICE_S it is the stage's CPU time on a
host whose slice takes REF_SLICE_S, the normalized time that run.py reports.

The kernel is pure Python on the standard library (``Fraction`` sums,
tuple building, dict updates), the same kinds of work as hallq, and calls
nothing in hallq, so a change to hallq does not change the kernel.  The time
spent in the handler is taken out of the stage's wall and CPU time by
``Laps``.

CPU times are those of the main thread (``time.thread_time``), where every
workload runs.  While a process-wide CPU-time timer is armed, Linux serves
``time.process_time`` from a sample that moves only at timer ticks, so a
1 ms slice read 0.06-0.09 ms by it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
# The kernel's CPU time, about the median slice on a quiet 2-vCPU Xeon VM
# with Python 3.11.7; a fixed scale, so that normalized times read close to
# CPU seconds there.
REF_SLICE_S = 0.001
KERNEL_STEPS = 220


def kernel() -> Fraction:
    acc = Fraction(0)
    counts: dict = {}
    for i in range(KERNEL_STEPS):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = tuple(range(i % 6))
        counts[key] = counts.get(key, 0) + 1
    return acc


class SpeedProbe:
    """Calibration slices taken from a SIGPROF handler while started."""

    def __init__(self):
        self.slices: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def _handler(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.slices.append(c1 - c0)
        self.wall += w1 - w0
        self.cpu += c1 - c0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def read(self) -> tuple[float, float, list[float], float, float]:
        """Wall and CPU clock now, and the slices and the handler's wall and
        CPU time since the last read; no slice runs while it reads."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            out = (time.perf_counter(), time.thread_time(), self.slices, self.wall, self.cpu)
            self.slices, self.wall, self.cpu = [], 0.0, 0.0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})
        return out
