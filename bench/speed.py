"""Host-speed calibration for the timed run.

The benchmark runs on a shared host whose speed changes while it runs: for
seconds to minutes at a time the same pass takes up to 1.8 times as long,
and CPU time grows with wall time, so the work itself runs slower (another
tenant on the same physical core, not time taken away from the process).
Medians over passes then depend on how much of each run fell in a slow
stretch, and ten runs of the same code spread by up to 0.4.

``SpeedClock`` cuts the time it measures into segments of ``SEGMENT_S``: a
timer signal interrupts the work, and the handler runs a fixed pure-Python
loop (``calibrate``).  Each segment's time is divided by the loop's time,
averaged over the segment's two ends, and multiplied by ``REF_CAL_S``.  The
result is the time the segment takes at the speed at which the loop takes
``REF_CAL_S``: seconds on an unloaded core of the reference host.  The loop
does not call relalg, so a change to relalg moves the scaled time as it
moves the measured one, while a change of host speed moves the loop and the
work alike and cancels.
"""

from __future__ import annotations

import signal
from time import perf_counter

# The loop's time on the reference host, an unloaded core of a 2.1 GHz Xeon
# VM with CPython 3.11; the scaled times are seconds on that host.
REF_CAL_S = 1.0e-3
SEGMENT_S = 0.25
CAL_REPEATS = 3


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def at(self, x: int) -> int:
        return (self.a * x + self.b) % 1009


def _loop() -> int:
    """Interpreter-bound work of the kinds relalg does: method calls,
    attribute reads, small-int arithmetic, tuples and set look-ups.  Of the
    loops tried, its time tracked the passes' times most closely."""
    maps = [_Affine(i, 3 * i) for i in range(64)]
    seen = set()
    total = 0
    for i in range(3600):
        value = maps[i & 63].at(i)
        key = (value, i % 5)
        if key not in seen:
            seen.add(key)
        total += value
    return total + len(seen)


def calibrate() -> float:
    """Seconds the loop takes now: the fastest of a few runs, so that one
    interrupt does not count."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        started = perf_counter()
        _loop()
        best = min(best, perf_counter() - started)
    return best


class SpeedClock:
    """Measured and speed-scaled time of consecutive stretches of work, for
    use in a ``with`` block in the main thread.  Time spent calibrating
    counts in neither, and ``now`` leaves it out."""

    def __init__(self):
        self._paused_s = 0.0
        self.measured_s = self.scaled_s = 0.0
        self._busy = True  # the handler leaves the segment alone while set
        self._cal = self._calibrate()
        self._start = perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        self._busy = False

    def __enter__(self) -> "SpeedClock":
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _calibrate(self) -> float:
        started = perf_counter()
        cal = calibrate()
        self._paused_s += perf_counter() - started
        return cal

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._close_segment()

    def _close_segment(self) -> None:
        now = perf_counter()
        cal = self._calibrate()
        self.measured_s += now - self._start
        self.scaled_s += (now - self._start) * REF_CAL_S * 2 / (self._cal + cal)
        self._cal = cal
        self._start = perf_counter()

    def now(self) -> float:
        """perf_counter() less the time spent calibrating."""
        return perf_counter() - self._paused_s

    def lap(self) -> tuple[float, float]:
        """(measured, scaled) seconds since the last lap; starts the next."""
        self._busy = True
        try:
            self._close_segment()
            out = self.measured_s, self.scaled_s
            self.measured_s = self.scaled_s = 0.0
        finally:
            self._busy = False
        return out
