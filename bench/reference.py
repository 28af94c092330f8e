"""A fixed unit of CPU work that rescales measured times to a nominal
machine speed.

The CPU speed one process sees on a shared host drifts by tens of percent
within seconds, so raw times of the same code differ between runs by
more than the changes the benchmark must detect.  While a pass runs, a
timer signal interrupts it every INTERVAL_S and times one reference unit
(about 3 % of the pass).  The pass reads time from Sampler.clock, which
leaves out the time spent in the handler, so neither the interrupted
operation nor an open span is charged for it.  The garbage collector is
off inside the handler, so no collection of the program's garbage lands
there either.  The run reports a time t as t * NOMINAL_S / (mean unit
time in the same pass): seconds on a machine where the unit takes
NOMINAL_S.  The mean, not the median, because the samples mix the speed
states in the proportion the pass saw them.  A request's latency is
rescaled by the samples taken while it ran and within LOCAL_S either
side, since the speed changes within a pass.  Traced passes are sampled
and rescaled the same way as plain ones.

Set-up times are rescaled once per run: their median by the mean of the
bursts the parent process times between its set-up spawns, so the
package's state never touches that divisor.  Rescaling each spawn by the
bursts around it alone added more noise than it removed.  Raw times are
kept in the run's record.

The unit does the kind of work the package does (tuple building over a
2520-entry window with gcd and modular tests, entrywise products, float
formatting), which tracks the drift better than a plain integer loop.  It
never changes with the package; changing it changes every time metric.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.0015
INTERVAL_S = 0.05
LOCAL_S = 0.25  # a request is rescaled by the samples this close to it
WINDOW = 2520
OUTLIER = 3  # samples over this many times the median were hit by a GC pass or preemption
BURST = 10  # taken as a pass starts and as it ends, and between set-up spawns


def unit() -> int:
    ind = tuple(1 if math.gcd(m - 3, 30) == 15 else 0 for m in range(WINDOW))
    prod = tuple(a * b for a, b in zip(ind, ind))
    return len(", ".join(f"[{float(v)!r}, 0.0]" for v in prod))


def sample() -> float:
    """Seconds one unit takes."""
    t0 = perf_counter()
    unit()
    return perf_counter() - t0


def burst() -> list[float]:
    """BURST unit times, back to back."""
    return [sample() for _ in range(BURST)]


def local_factors(samples: list[float], times: list[float], windows) -> list[float]:
    """NOMINAL_S over the mean unit time of the samples taken from LOCAL_S
    before each (start, end) window to LOCAL_S after it; samples and
    times in time order."""
    factors = []
    for start, end in windows:
        near = samples[bisect.bisect_left(times, start - LOCAL_S):
                       bisect.bisect_right(times, end + LOCAL_S)]
        factors.append(NOMINAL_S / mean_sample(near or samples))
    return factors


def mean_sample(samples: list[float]) -> float:
    """Mean unit time, leaving out samples a garbage-collector pass hit."""
    cutoff = OUTLIER * statistics.median(samples)
    return statistics.mean(s for s in samples if s <= cutoff)


class Sampler:
    """Times BURST units on entry and on exit, and one unit every
    INTERVAL_S of wall time from a SIGALRM handler in between.  ``times``
    holds the clock() reading as each sample started; ``stolen`` is the
    total time spent in the handler."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []
        self.stolen = 0.0

    def clock(self) -> float:
        """perf_counter() less the time spent in the handler so far."""
        return perf_counter() - self.stolen

    def _tick(self, signum, frame):
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.times.append(t0 - self.stolen)
            self.samples.append(sample())
        finally:
            if collecting:
                gc.enable()
        self.stolen += perf_counter() - t0

    def _burst(self):
        for _ in range(BURST):
            self.times.append(self.clock())
            self.samples.append(sample())

    def __enter__(self):
        self._burst()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._burst()
