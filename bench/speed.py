"""Machine speed, sampled while a request runs, to report timings at a fixed speed.

The benchmark runs on a few cores of a shared host whose speed flips between
states about 1.7x apart, several times a second, and the share of time spent
in each state drifts over minutes.  Pure-Python exact arithmetic slows with
it, so raw seconds from two runs of the same code differ by more than any
change worth measuring.

While a request runs, a ``Probe`` interrupts the process every INTERVAL_S
with SIGALRM; the handler runs ``reference_work`` in the same thread and
records how long it took.  ``reference_work`` belongs to the benchmark and
never calls heckepoly, so a change to the program does not move it.  The mean
of ``REFERENCE_S / sample`` over a request is the machine's speed during that
request relative to the reference speed, and run.py multiplies the request's
time by it: the seconds the request would have taken on a machine where
``reference_work`` takes REFERENCE_S.  The handler's own time (about 3% of a
request) stays in the timing, the same on every commit.  Raw timings are
printed beside the scaled ones.

No thread is started: the handler runs in the main thread between bytecodes.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The reference speed: scaled timings are the seconds a run would take where
# reference_work() takes this long inside a request.  It is near that time on
# the 2-vCPU VM the benchmark was defined on (Python 3.11) in the host's
# slower state, so that scaled and raw timings are of like size.
REFERENCE_S = 0.0003

# Seconds between two samples while a probe runs.
INTERVAL_S = 0.01


def reference_work():
    """A Fraction sum: the arithmetic the program spends most of its time in."""
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i * i + 3)
    return total


def sample():
    """Seconds one reference_work() call takes now."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def factor(samples):
    """Speed relative to the reference: the mean of REFERENCE_S / sample."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class Probe:
    """Speed samples of this process taken every INTERVAL_S between start() and stop()."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        self.samples.append(sample())

    def start(self):
        """Take one sample at once, then arm the timer."""
        self.samples = [sample()]
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Disarm the timer and return the speed factor since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return factor(self.samples)
