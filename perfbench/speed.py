"""Durations rescaled to a reference machine speed.

The benchmark runs on shared machines whose speed is not constant.  On a
shared 2-vCPU Xeon virtual machine a fixed pure-Python loop flips between
about 0.30 and 0.52 ms every few milliseconds, and the share of time spent
in the fast state drifts over tens of seconds (from about 35% to 0% and
back), with the process never descheduled.  The raw time of a whole 15 s run
therefore varies by about 20% from run to run, while the slowdown is common
to all pure-Python work.

Clock times that calibration loop between queries, spending CAL_SHARE of
the measured time on it, and divides each measured duration by the mean
slowdown of the loop over a window around the duration, relative to
CAL_REF_S.  Reported times are what the duration would have been at the
reference speed; the report also carries the raw figures and the range of
slowdowns seen.  A duration much shorter than the flips (a 0.5 ms query) is
itself either fast or slow, so it is only steady when averaged over repeats.

Only pure-Python work tracks the loop.  A CLI call (process start-up) and
numpy's brute force moved by about a third of the loop's slowdown, so
rescaling overcorrected them; those workloads are timed raw.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

CAL_REF_S = 4.0e-4  # one calibration loop at reference speed: that machine's typical mean
CAL_SHARE = 0.1  # calibration time per second measured
WINDOW_S = 1.0  # calibration samples this close to a duration rescale it
MIN_SAMPLES = 16  # or the nearest this many, where the window holds fewer
CAP = 3.0  # a loop slower than CAP * CAL_REF_S was interrupted, not slowed; it counts as CAP

_now = time.perf_counter


def _calibration_loop() -> float:
    # float math and small calls, the mix the library's inner loops run
    acc = 0.0
    for i in range(1, 1000):
        x = i * 1e-3
        acc += math.log1p(x) - math.exp(-x) + max(x, 0.5)
    return acc


class Clock:
    """Calibration samples over time, and durations rescaled by them."""

    def __init__(self):
        self._times: list[float] = []
        self._costs: list[float] = []
        self._owed = 0.0

    def spend(self, seconds: float) -> None:
        """Run calibration loops for about `seconds`."""
        self._owed += seconds
        while self._owed > 0.0:
            t0 = _now()
            _calibration_loop()
            t1 = _now()
            self._times.append(0.5 * (t0 + t1))
            self._costs.append(min(t1 - t0, CAP * CAL_REF_S))
            self._owed -= t1 - t0

    def measured(self, seconds: float) -> None:
        """Calibrate in proportion to a duration just measured."""
        self.spend(CAL_SHARE * seconds)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean calibration cost around [t0, t1] over the reference cost."""
        lo = bisect.bisect_left(self._times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._times, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self._times, 0.5 * (t0 + t1))
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self._times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return statistics.fmean(self._costs[lo:hi]) / CAL_REF_S

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] at the reference speed."""
        return (t1 - t0) / self.slowdown(t0, t1)

    def factors(self) -> dict:
        ratios = sorted(c / CAL_REF_S for c in self._costs)
        if not ratios:
            return {}
        return {"samples": len(ratios), "min": ratios[0], "mean": statistics.fmean(ratios), "max": ratios[-1]}
