"""How fast the machine is running right now, sampled while work runs.

On a shared machine, neighbours slow this process down in bursts that last
from a fraction of a second to half a minute, by up to 1.8x, and process CPU
time shows the same slowdown as wall time.  A timer signal therefore runs a
fixed piece of exact-rational Python work (the probe) every INTERVAL_S and
records how long it took.  A timing divided by the mean probe duration
around it, times REFERENCE_PROBE_S, is the time the work would take with
the machine at its reference speed: the speed at which the probe takes
REFERENCE_PROBE_S.  The time spent in the probe is subtracted first.
"""

from __future__ import annotations

import atexit
import bisect
import signal
import sys
import time
from fractions import Fraction

from oracles import Series, Tower

INTERVAL_S = 0.02
# the probe's duration at the reference speed: its fast-mode duration on a
# 2-vCPU Xeon virtual machine under Python 3.11
REFERENCE_PROBE_S = 0.0002
_WINDOW_S = 0.06
_MARK = "bench-speed"

# The probe multiplies two series with the benchmark's own exact arithmetic:
# code of the same kind as troplift's (dicts, tuples, small Fractions), so that
# it slows down by about as much when neighbours load the machine; it does
# not change when troplift does.
_TOWER = Tower()
_LEFT = Series.rational(_TOWER, [(Fraction(k, 2), Fraction(k % 3 + 1, k % 4 + 1)) for k in range(1, 5)])
_RIGHT = Series.rational(_TOWER, [(Fraction(k, 3), Fraction(k % 5 - 2 or 1, 2)) for k in range(1, 4)])


def probe_work():
    return _LEFT * _RIGHT


class SpeedProbe:
    """Runs probe_work on SIGALRM every INTERVAL_S; keeps (start, duration)."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        probe_work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _range(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def normalized(self, t0, t1):
        """Reference-speed seconds for work that ran from t0 to t1: the time
        not spent in the probe, scaled by the mean probe duration within
        _WINDOW_S of the interval (or by the nearest sample)."""
        lo, hi = self._range(t0, t1)
        busy = (t1 - t0) - sum(self.durations[lo:hi])
        lo, hi = self._range(t0 - _WINDOW_S, t1 + _WINDOW_S)
        if hi == lo:
            k = min(lo, len(self.starts) - 1)
            lo, hi = k, k + 1
        mean = sum(self.durations[lo:hi]) / (hi - lo)
        return busy * REFERENCE_PROBE_S / mean


def report_at_exit():
    """In a child process, such as a CLI cold start: sample the speed until
    the process exits, then write to stderr the time spent probing and the
    median probe duration.  The probe runs a few times first, so that the
    samples time warm code."""
    t0 = time.perf_counter()
    for _ in range(8):
        probe_work()
    warm = time.perf_counter() - t0
    probe = SpeedProbe()
    probe.start()

    def report():
        probe.stop()
        samples = sorted(probe.durations) or [warm / 8]
        total = warm + sum(samples)
        sys.stderr.write("%s %r %r\n" % (_MARK, total, samples[len(samples) // 2]))

    atexit.register(report)


def child_normalized(wall, stderr):
    """Reference-speed seconds for a child process that ran report_at_exit,
    from its wall time and its stderr."""
    marked = [line.split() for line in stderr.splitlines() if line.startswith(_MARK)]
    _, total, median = marked[-1]
    return (wall - float(total)) * REFERENCE_PROBE_S / float(median)
