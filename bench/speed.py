"""Machine-speed probe: times are scaled to a machine of fixed, nominal speed.

The host this benchmark was tuned on (a few shared KVM vCPUs) runs the same
code up to twice as fast in some stretches as in others, over seconds to
minutes, which is more than any bound on a regression could absorb.  So
while a timed run is in progress, a ``SIGALRM`` timer interrupts it every
``PERIOD_S`` and runs a fixed reference slice (dict churn plus small numpy
arrays, the same mix as the program), recording how long the slice took.
A program time is then reported as the sum, over the pieces of wall time
between slices, of

    piece * NOMINAL_SLICE_S / median(slice times within WINDOW_S)

that is, the time the same work would take on a machine that runs the
reference slice in ``NOMINAL_SLICE_S``.  A slower program still reads
slower; a slower machine does not.  The slice code and ``NOMINAL_SLICE_S``
are part of the benchmark's definition and must not change between the
commits being compared.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_SLICE_S = 450e-6  # about the slice's median on the tuning machine
PERIOD_S = 0.02
WINDOW_S = 0.25  # slices this close to a span also describe its speed

_ARRAY = np.linspace(0.1, 1.0, 64)


def reference_slice() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    table = {}
    for i in range(400):
        table[(i, i & 7)] = i * 0.5
    total = 0.0
    for value in table.values():
        total += value
    a = _ARRAY
    for _ in range(30):
        a = np.exp(-a) * 0.5 + a.mean()
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference slices taken on a timer while the program runs.

    Inside ``with probe.running():`` the slices interrupt the program;
    ``paused`` is the total time they took, and ``nominal(t0, t1)`` is the
    nominal-machine time of the program's work between two ``perf_counter``
    readings.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.stamps: list[float] = []  # perf_counter at the end of each slice
        self.slices: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        took = reference_slice()
        self.stamps.append(time.perf_counter())
        self.slices.append(took)
        self.paused += took

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)  # so that even a short span has a slice near it
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, t0: float, t1: float, window: float = WINDOW_S) -> float:
        """Nominal over measured slice time, from the slices within ``window`` of [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0 - window)
        hi = bisect.bisect_right(self.stamps, t1 + window)
        return NOMINAL_SLICE_S / statistics.median(self.slices[lo:hi] or self.slices)

    def nominal(self, t0: float, t1: float) -> float:
        """Nominal-machine time of the program's work in [t0, t1].

        The span is cut at each slice; every piece outside the slices is
        scaled by the speed ``WINDOW_S`` around it, so the speed is tracked
        through the span rather than averaged over it.
        """
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        total, start = 0.0, t0
        for i in range(lo, hi):
            end = self.stamps[i] - self.slices[i]
            total += max(0.0, end - start) * self.scale(start, end)
            start = self.stamps[i]
        return total + max(0.0, t1 - start) * self.scale(start, t1)
