"""Machine-speed probe: a fixed kernel timed while an operation runs.

On a virtual machine whose host is shared, the same single-threaded
operation runs up to 1.5x slower for seconds at a time, and no statistic of
a few multi-second samples removes that.  The probe measures the slowdown
where it happens: an interval timer interrupts the operation every
``PERIOD_S`` seconds, and the signal handler times one run of a fixed
kernel.  The kernel is a chain of ``Fraction`` products and sums in plain
Python; it calls no relfreq code, so a change to the program does not
change it.

The operation's own time is its wall time minus the time spent timing the
kernel.  Dividing that by the kernel's mean time during the operation gives
its cost in kernel runs, which moves with the program and hardly with the
host; ``REFERENCE_S`` turns it back into seconds.  On a 2-vCPU virtual
machine (Intel Xeon, Python 3.11) this cut the coefficient of variation of
repeated identical operations from 0.14-0.16 to about 0.04 on exact k-of-n,
exact ladder and float sweep solves.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
# Kernel seconds on a quiet 2-vCPU Intel Xeon virtual machine, Python 3.11:
# a normalised time is the operation's seconds on a machine that runs the
# kernel in exactly this long.
REFERENCE_S = 0.00045


def kernel():
    a = Fraction(1, 3)
    for i in range(1, 120):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, i)
    return a


class Probe:
    """Times the kernel at ``start`` and then every ``PERIOD_S`` until ``stop``."""

    def __init__(self):
        self.samples: list = []

    def _sample(self, *_):
        # the kernel's allocations must not trigger a collection of the
        # operation's objects inside the handler
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def start(self):
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Seconds spent timing the kernel since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return sum(self.samples)

    def speed_factor(self):
        """Mean kernel time over ``REFERENCE_S``: 1 on the quiet machine."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S
