"""Times at a reference machine speed.

On a shared machine the speed of identical work changes by up to 1.6x
between stretches of seconds to minutes (CPU time tracks wall time, so it
is not stolen time), often longer than a run, so no estimator inside one
run can average it away.  While a run measures, an interval timer
interrupts it every ``INTERVAL_S`` seconds to time a fixed calibration
kernel, which never changes and does not touch the program, and every
time is reported scaled to the speed at which the kernel takes
``REFERENCE_S``:

    time at reference speed = measured time * REFERENCE_S / kernel time,

where the kernel time is the median of the samples taken during the
interval and within ``WINDOW_S`` of its middle.  The kernel is the kind of
code the program runs: a pure-Python loop over subset bitmasks with
popcounts and bytearray stores, like the robustness certifier's memoised
reachability scan.  Over 33 windows of about 4.5 s in one process, the
time of a fixed set of certifications varied with a coefficient of
variation of 0.12; divided by this kernel's time, 0.075; divided by that
of a kernel of scattered reads over 4 MiB (an earlier version), 0.13.
``now()`` stops while the kernel runs, so no measured time includes it.
The benchmark stays single-threaded: the timer is a signal handled between
bytecodes of the main thread.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.005
INTERVAL_S = 0.25
WINDOW_S = 2.5

_RNG = random.Random(5)
_ROWS = [_RNG.getrandbits(14) for _ in range(14)]


def _kernel() -> int:
    """About 5 ms: for every 12-bit mask, the largest count of set bits of
    a member's row outside the mask, stored in a bytearray."""
    memo = bytearray(1 << 12)
    rows = _ROWS
    total = 0
    for mask in range(1, 1 << 12):
        best = 0
        rest = mask
        while rest:
            low = rest & -rest
            count = (rows[low.bit_length() - 1] & ~mask).bit_count()
            if count > best:
                best = count
            rest ^= low
        memo[mask] = best
        total += best
    return total


class Clock:
    """Calibration samples taken while the context is open; scaled times."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._paused = 0.0

    def now(self) -> float:
        """perf_counter() minus the time spent in calibration."""
        return perf_counter() - self._paused

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.times.append(t0 - self._paused)
        self.kernel_s.append(t1 - t0)
        self._paused += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def kernel_over(self, t0: float, t1: float) -> float:
        """Median kernel time over [t0, t1] widened to WINDOW_S around its middle."""
        mid = (t0 + t1) / 2
        lo = bisect.bisect_left(self.times, min(t0, mid - WINDOW_S))
        hi = bisect.bisect_right(self.times, max(t1, mid + WINDOW_S))
        if lo == hi:  # no sample near: take the closest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return statistics.median(self.kernel_s[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] (``now()`` readings) at reference speed."""
        return (t1 - t0) * REFERENCE_S / self.kernel_over(t0, t1)
