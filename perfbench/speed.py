"""Machine-speed calibration for the benchmark's timings.

On a shared host the same Python work can take twice as long from one
minute to the next: a fixed loop of ``bessel_j_qpow`` calls, timed every
0.4 s for 40 s on the development machine, ranged from 0.26 s to 0.58 s, and
the CPU time of the process moved with it, so the slowdown is contention for
the core (not time spent descheduled).  A short fixed pure-Python loop,
timed around each timed operation, slows down with it: the operation's time
divided by the loop's time varied three times less than the operation's
time alone.

Timings are therefore reported at a nominal speed: ``scaled = seconds *
NOMINAL_S / loop_seconds``, where ``NOMINAL_S`` is the loop's time on that
machine when it is quiet.  On a quiet machine of that speed, scaled and raw
seconds coincide.  The loop is part of the benchmark, not of qfb, so two
versions of qfb are always scaled by the same yardstick.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# the loop's time on the development machine when quiet: its 5th percentile
# over 400 timings spread across 40 s was 0.29 ms (median 0.48 ms)
NOMINAL_S = 0.29e-3


def _loop() -> float:
    """Fixed work in the style of qfb: float arithmetic and math calls in a
    Python loop (the float lane), multiplications of 300-bit integers (the
    mantissas of mpmath's pure-Python backend), list and dict traffic."""
    acc = 0.0
    big = (1 << 300) // 7
    mant = big
    ring = [0.0] * 64
    table: dict[int, float] = {}
    for i in range(900):
        x = math.sqrt(i + 1.0) * 1.0000001
        acc += x / (1.0 + x) - math.expm1(-x * 1e-3)
        mant = (mant * big) >> 300
        ring[i & 63] = acc
        table[i & 255] = x
    return acc + ring[0] + table[0] + (mant & 1)


def loop_seconds() -> float:
    """Median of three timings of the loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds: float, before: float, after: float) -> float:
    """seconds at nominal speed, given the loop's time before and after."""
    return seconds * NOMINAL_S / (0.5 * (before + after))


class Gauge:
    """Timings of the loop, taken around and during operations.

    ``begin`` starts a timer that runs the loop every ``PERIOD_S`` while the
    operation runs (a SIGALRM handler, so between bytecodes of the one
    thread); ``end`` stops it, reads the loop once more and returns the
    operation's seconds, without the time the loop itself took, and those
    seconds scaled by the median of every loop timing from ``WINDOW_S``
    before the operation began until it ended.  Long operations are thus
    scaled by the speed they actually met, and short ones by the speed
    around them.
    """

    WINDOW_S = 1.0
    PERIOD_S = 0.05

    def __init__(self):
        self._marks: list[tuple[float, float]] = []
        self._stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.read()

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def read(self) -> None:
        start = time.perf_counter()
        self._marks.append((start, loop_seconds()))
        self._stolen += time.perf_counter() - start
        if len(self._marks) > 4096:
            del self._marks[:2048]

    def _tick(self, signum, frame) -> None:
        self.read()

    def begin(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return time.perf_counter(), self._stolen

    def end(self, token: tuple[float, float]) -> tuple[float, float]:
        """(seconds, seconds at nominal speed) of the operation since begin."""
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        start, stolen = token
        seconds = end - start - (self._stolen - stolen)
        self.read()
        recent = [s for t, s in self._marks if t >= start - self.WINDOW_S]
        return seconds, seconds * NOMINAL_S / statistics.median(recent)
