"""Machine-speed probe, for timings taken on a shared machine.

On a shared virtual machine the same single-threaded work runs up to
1.5x slower for seconds at a time, while other guests load the host.
Steal-time accounting sees almost none of it, so the process's CPU time
varies as much as its wall time. On a 2-vCPU x86_64 KVM guest (Xeon,
family 6 model 143), 5 sequential runs of one workload read 13.5-18.2 s
of wall time and 13.5-18.2 s of CPU time.

So every timed region is sampled: a SIGALRM handler runs `probe`, a
fixed pure-Python loop with no data of its own, every INTERVAL_S
seconds in the same thread as the region. The probe therefore runs at
the speed the region's own work runs at, at the same moments. A
region's normalized time is its wall time less the time spent in the
probes, times the mean of PROBE_REF_S / probe time over its samples:
the time the region would take at the speed at which one probe takes
PROBE_REF_S. Sampling is uniform in wall time, so that mean is the
region's mean speed relative to the reference.

This module imports nothing outside the standard library, so a fresh
interpreter can load it before throttleid (and numpy) without warming
them.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ITERATIONS = 30_000
# A round figure for the probe's time on a 2-vCPU Xeon (family 6 model
# 143) KVM guest under CPython 3.11, where it measured 1.7-2.6 ms. It
# only sets the scale: runs are compared by ratios of normalized times.
PROBE_REF_S = 2.0e-3
INTERVAL_S = 0.1
BURST = 20          # probes run back to back by `burst`


def probe() -> float:
    """Wall time of the fixed reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * 3
    return time.perf_counter() - t0


def speed(probes) -> float:
    """Mean speed relative to the reference over the probe samples."""
    return statistics.fmean(PROBE_REF_S / p for p in probes)


def burst() -> float:
    """Current speed from BURST probes run back to back."""
    return speed([probe() for _ in range(BURST)])


class Sampler:
    """Context manager timing a region of the main thread while probing it.

    After exit: `wall` (s), `probes` (the probe times) and `normalized`.
    """

    def __enter__(self):
        self.probes = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        self.probes.append(probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        work = self.wall - sum(self.probes)
        if not self.probes:           # region shorter than one interval
            self.probes.append(probe())
        self.normalized = work * speed(self.probes)
        return False
