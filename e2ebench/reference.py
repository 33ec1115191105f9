"""Machine-speed probe that rescales measured intervals.

The 2-core machines this benchmark runs on share their cores with other
tenants. A fixed loop runs about 1.6 times slower whenever the machine's
other vCPU is busy, and it shows slow phases of the same depth while that
vCPU is idle, lasting from seconds to minutes. A 30-second run therefore sees
a random mix of fast and slow phases: the raw median pass times of ten runs
of ``mc_errorbars`` spread by 0.24 (quartile distance over median).

``SpeedMeter.time`` runs a fixed ~0.2 ms probe right before and right after
the interval and, through an interval timer, every ``SAMPLE_EVERY_S`` while
it runs. The probe time says how slow the machine is at that moment. The
interval, minus the time spent in the probes, is rescaled by
``PROBE_S / mean(probe time)``, i.e. to the speed of the machine when its
core is not shared. For the same ten runs the spread fell to 0.06.

The probe mixes the two kinds of work the program does: numpy calls on tiny
arrays and plain Python arithmetic. It never changes; changing it, or
``PROBE_S``, is a change to the benchmark.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# probe seconds on the 2-core x86_64 reference machine (numpy 2.4, Python
# 3.11) while the other hardware thread of its core is idle
PROBE_S = 125e-6
SAMPLE_EVERY_S = 0.02
# the slowest probes of an interval are dropped: they caught an interrupt
# or a preemption rather than the speed of the core
TRIM_SLOWEST = 0.1

_ARM = np.ones((2, 40), complex)


def _slice() -> float:
    t0 = time.perf_counter()
    a = _ARM
    for _ in range(8):
        a = np.stack((0.6 * a[0] - 0.8 * a[1], 0.8 * a[0] + 0.6 * a[1]))
    acc = 0
    for i in range(800):
        acc += i * i
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds one fixed slice of work takes right now.

    The slice runs twice and only the second run counts: the first pulls
    its code and data back into the caches the measured program evicted,
    so the reading tracks the core's speed, not the program's memory use.
    """
    _slice()
    return _slice()


def speed_factor(samples) -> float:
    """PROBE_S over the trimmed mean probe time: 1 at reference speed."""
    kept = sorted(samples)[:max(1, round(len(samples) * (1 - TRIM_SLOWEST)))]
    return PROBE_S / statistics.fmean(kept)


class SpeedMeter:
    """Times a callable and rescales it to reference machine speed.

    Uses SIGALRM while the callable runs, so it must be used from the main
    thread of a process that installs no alarm handler of its own.
    """

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.probe_s += time.perf_counter() - t0

    def time(self, fn):
        """(fn's result, seconds without probes, rescaled seconds).

        ``probe_s`` keeps the probe time spent inside fn until the next call.
        """
        self.samples = [probe()]
        self.probe_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(probe())
        raw = elapsed - self.probe_s
        return result, raw, raw * speed_factor(self.samples)


def probes(n: int) -> list:
    return [probe() for _ in range(n)]
