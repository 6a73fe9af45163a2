"""Timings at a fixed reference speed of the machine.

On a shared 2-core host the benchmark's core alternates between a fast
state and one about 1.6 times slower, for seconds to minutes at a time, as
other tenants come and go.  Raw wall times of the same work then spread by
20-30% from run to run, which no number of passes removes.  ``Sampler``
measures the speed while the work runs: a SIGALRM handler runs a fixed
reference burst (a Python loop of 3x3 complex products, like the program's
own hot loops) every ``INTERVAL_S`` and records how long it took.  A
region's time at reference speed is its wall time, less the bursts, times
the mean of ``REFERENCE_BURST_S / burst time`` over the bursts taken
inside it: the time the same work takes where one burst takes
``REFERENCE_BURST_S``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
REFERENCE_BURST_S = 0.6e-3  # about the burst's time when the 2-core host is in its fast state
_BURST_STEPS = 300
_MATRIX = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]], dtype=complex)


def _burst():
    v = np.ones(3, dtype=complex)
    for _ in range(_BURST_STEPS):
        v = _MATRIX @ v
        v /= 1.0001


class Sampler:
    """Context manager sampling the machine's speed while it is active."""

    def __init__(self):
        self.bursts = []
        self.spent_s = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame):
        start = perf_counter()
        _burst()
        self.bursts.append(perf_counter() - start)
        self.spent_s += perf_counter() - start

    def time(self, fn):
        """(result, wall seconds less the bursts, seconds at reference speed)."""
        first, spent = len(self.bursts), self.spent_s
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start - (self.spent_s - spent)
        bursts = self.bursts[first:] or self.bursts[-1:] or [REFERENCE_BURST_S]
        return result, wall, wall * statistics.fmean(REFERENCE_BURST_S / b for b in bursts)
