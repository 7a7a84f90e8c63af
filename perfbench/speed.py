"""Times at a reference machine speed.

On a shared virtual machine the speed this process gets drifts by up to a
factor of two over minutes, while the ratio of an operation's time to that
of a calibration loop stays within a few percent once both are averaged
over a second or so.  So the benchmark times a calibration loop every
``TICK_S``, between operations and while one runs, and scales an
operation's raw seconds by the mean speed of the samples around it (see
``Meter`` for which).

The loop does a Python call, multi-word integer arithmetic and a gcd per
step, like the many small calls of the verdict engine and Fraction
arithmetic; of three loops tried (this one, small-integer bytecode, calls
and branches), it left the smallest run-to-run spread on most workloads.  A change to the program cannot
change the loop: it allocates no container, so neither the program's heap
nor the garbage collector reaches it.  Child processes share the parent's
CPU (see ``pin_to_one_cpu``), so the parent's loop tracks their speed too.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import sys
import time

CALIB_REF_S = 2.0e-3  # the loop's time at the speed reported times refer to
TICK_S = 0.05
WINDOW = 21  # samples a short call's speed is the mean of
LONG_S = 0.02  # calls this long take their speed from samples around them
_MODULUS = (1 << 100) - 15


class OpTimeout(Exception):
    pass


def _step(acc: int, i: int) -> int:
    return (acc * 0x9E3779B97F4A7C15 + i) % _MODULUS


def _loop() -> float:
    buf = [0] * 64
    acc = 1
    t0 = time.perf_counter()
    for i in range(2_400):
        acc = _step(acc, i)
        buf[i & 63] = math.gcd(acc, i + 1)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Speed now: CALIB_REF_S over the time the loop takes."""
    return CALIB_REF_S / _loop()


class Meter:
    """Times calls, and afterwards scales them to the reference speed.

    The calibration loop runs every TICK_S: before a call when that long
    has passed since its last sample, and from a SIGALRM handler while a
    call runs (the handler's time is taken out of the call's, and it
    raises OpTimeout once the call has run for ``cap_s``).  It never runs
    right after a call just for that call's sake: a call of tens of
    microseconds run right after the loop takes about twice its time.

    The speed of a call of LONG_S or more is the mean of the last sample
    before it, those taken while it ran and the first one after it.  That
    of a shorter call is the mean of the WINDOW samples up to the last one
    before it, about a second: one sample is as noisy as a short call,
    while their mean follows the slow drift the scaling is there to remove.
    """

    def __init__(self, cap_s: float = float("inf")):
        self.cap_s = cap_s
        self.times: list[float] = []  # when each sample ended
        self.speeds: list[float] = []
        self._sample()
        self.raw_s = 0.0
        self.span = (0.0, 0.0)  # start and end of the last call

    def _sample(self) -> None:
        speed = calibrate()
        self.times.append(time.perf_counter())
        self.speeds.append(speed)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self._handler_s += self.times[-1] - t0
        if t0 - self._start > self.cap_s:
            raise OpTimeout(f"operation exceeded {self.cap_s:.0f} s")

    def measure(self, fn, *args):
        """fn(*args); afterwards raw_s and span describe the call, also
        when it raised."""
        if time.perf_counter() - self.times[-1] >= TICK_S:
            self._sample()
        self._handler_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.raw_s = end - self._start - self._handler_s
            self.span = (self._start, end)

    def finish(self) -> None:
        """Take the sample that follows the last call."""
        self._sample()

    def speed(self, start: float, end: float) -> float:
        """Speed of the call that ran from start to end; after finish()."""
        before = bisect.bisect_right(self.times, start) - 1
        if end - start >= LONG_S:
            lo, hi = before, bisect.bisect_right(self.times, end) + 1
        else:
            lo, hi = max(0, before - WINDOW + 1), before + 1
        return statistics.fmean(self.speeds[lo:hi])


def at_reference_speed(fn, *args):
    """fn's result, and its duration scaled to the reference speed."""
    meter = Meter()
    result = meter.measure(fn, *args)
    meter.finish()
    return result, meter.raw_s * meter.speed(*meter.span)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, whose speed the
    calibration loop measures."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_probe() -> None:
    """Run in a fresh interpreter: print the import time of the CLI at the
    reference speed, and whether numpy came with it."""
    _, seconds = at_reference_speed(__import__, "hyperbisect.cli")
    print(seconds, int("numpy" in sys.modules))
