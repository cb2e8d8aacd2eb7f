"""Correction of pass times for CPU contention from other tenants.

On a shared VM the same pass can take 20% longer while another tenant
loads the core.  Measured on a shared 2-core Xeon VM, a fixed loop
alternates between about 40 and 70 ms per 20,000 jet gradients, in
stretches of a few seconds; CPU time inflates with wall time, so it gives
no shelter.  While a pass runs, an interval timer interrupts it every
``PERIOD`` seconds to time a fixed NumPy loop.  Each stretch of the pass
between two probes is rescaled by ``REFERENCE / (probe duration)``, i.e. to
the speed at which the probe loop takes ``REFERENCE`` seconds; the probes'
own time is left out.  The corrected time is therefore in reference-core
seconds: it tracks the program, not the neighbours.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.05  # seconds between probes
LOOP = 60  # iterations of the probe loop (about 1 ms)
REFERENCE = 8e-4  # probe duration on an uncontended core, seconds

_A = np.array([0.1, 0.2, 0.3, 0.4])
_B = np.array([0.5, 0.4, 0.3, 0.2])


def _loop() -> float:
    """Small-vector NumPy arithmetic and float conversions, the instruction
    mix of the program's integrator steps.  It uses no program code, so a
    change to the program cannot change the probe.  (A pure integer loop
    tracked the contention much worse: it cut the spread of 0.2 s chunks of
    RKF45 work from 0.59 to 0.30, this loop from 0.72 to 0.06.)"""
    x = _A
    err = 0.0
    for _ in range(LOOP):
        y = x + 0.25 * _B
        scale = 1e-12 + 1e-9 * np.maximum(np.abs(x), np.abs(y))
        err += float(np.sqrt(np.mean(((y - x) / scale) ** 2)))
        x = y * 0.999
    return err


class Probe:
    """Context manager that samples core speed during a pass."""

    def __init__(self):
        self.samples: list = []  # (start, duration)

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def raw(self) -> float:
        """Pass time without the probes."""
        return self.end - self.start - sum(d for _, d in self.samples)

    def corrected(self) -> float:
        """Pass time rescaled to the reference core speed.

        The speed over a stretch is read from the median of the eight
        probes around it (0.4 s), which damps single interrupted probes;
        the contention itself changes over seconds.
        """
        if not self.samples:
            return self.raw()
        durations = [d for _, d in self.samples]
        edges = [self.start] + [s for s, _ in self.samples] + [self.end]
        total = 0.0
        for k in range(len(edges) - 1):
            begin = edges[k] + (durations[k - 1] if k else 0.0)
            around = durations[max(0, k - 4) : k + 4]
            total += (edges[k + 1] - begin) * REFERENCE / statistics.median(around)
        return total
