"""Host-speed calibration: a fixed probe sampled during every timed interval.

The benchmark runs on virtual CPUs of a shared host whose speed drifts by
tens of percent within seconds (see "Host noise" in README.md), and
process CPU time drifts with it.  So while an interval is timed, an
interval timer interrupts the process every ``PERIOD_S`` and runs
``probe``, a fixed piece of work that belongs to the benchmark, not to
the program: a pure-Python arithmetic loop and a run of small numpy calls,
half the time each, which are the two kinds of work that set the op's
speed on this host (an arithmetic loop alone tracks the op's slowdowns
only partly).  The probe times show how fast the CPU ran
during the interval, and the interval is rescaled to a reference speed:

    calibrated = (wall - time spent in probes) * NOMINAL_PROBE_S / mean probe time

``NOMINAL_PROBE_S`` is a constant, so a calibrated time still reads in
seconds and still moves one for one with the program's own cost; only the
host's speed at the time of measurement cancels.  The probe allocates
nothing the garbage collector tracks and touches no program state; its
time is measured and taken out of the interval.  A Python signal handler
runs between bytecodes, so a long C call delays a probe rather than
losing it, and ``EDGE_PROBES`` probes just before and after the interval
make sure every interval has samples.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: probe period while an interval is timed
PERIOD_S = 0.01
#: arithmetic-loop length and numpy-call count of one probe, each about
#: 50 us on the reference host, so probes take about 1% of the period
PROBE_LOOPS = 1000
PROBE_CALLS = 80
#: mean probe time on the reference host (2-vCPU Intel Xeon VM, 2.1 GHz);
#: a fixed scale, never re-measured
NOMINAL_PROBE_S = 1.1e-4
#: probes run back to back just before and just after every interval
EDGE_PROBES = 5


_M = 3.0 * np.eye(6) + 0.1
_V = np.ones(6)


def probe():
    """One fixed unit of reference work."""
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    for _ in range(PROBE_CALLS):
        _M.dot(_V)
    return s


def _timed_probe():
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


@dataclass
class Interval:
    """One timed interval and the probe samples taken around and during it."""

    wall_s: float = 0.0
    probe_s: float = 0.0  # time the probes took inside the interval
    samples: list = field(default_factory=list)

    @property
    def busy_s(self):
        """Wall time of the interval without the probes run inside it."""
        return self.wall_s - self.probe_s

    @property
    def factor(self):
        """Reference speed over the speed the probes measured."""
        return NOMINAL_PROBE_S / statistics.fmean(self.samples)

    @property
    def calibrated_s(self):
        return self.busy_s * self.factor


@contextmanager
def interval():
    """Time the block as an ``Interval``, probing the CPU every ``PERIOD_S``.

    Not re-entrant: the process has one interval timer.
    """
    iv = Interval()
    inside = []

    def on_alarm(signum, frame):
        inside.append(_timed_probe())

    iv.samples += [_timed_probe() for _ in range(EDGE_PROBES)]
    previous = signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield iv
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        iv.wall_s = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    iv.probe_s = sum(inside)
    iv.samples += inside + [_timed_probe() for _ in range(EDGE_PROBES)]
