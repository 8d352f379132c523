"""Host-speed probe: a fixed CPU kernel timed every 100 ms of a task.

The host this benchmark was defined on runs at two or more speeds that
switch every few seconds to minutes, by up to 1.6x (see README.md). CPU
time tracks wall time, so the cause is outside the guest, and medians
within a run cannot remove a state that lasts the whole run. The probe
times a kernel that touches no critwave code (a Python loop and NumPy
sorts) on a SIGALRM timer while a task runs, and reports the median kernel
time over the task. Time spent in the probe is excluded from the task's
clock (``SpeedProbe.clock``).

A workload's ``wall_s`` is its task time scaled to the reference speed,
at which the kernel takes ``REF_KERNEL_S``:

    wall_s = work_s * (REF_KERNEL_S / kernel_s) ** speed_exponent

Workloads differ in how much the slow state slows them, so each has its
own ``speed_exponent`` (the slope of log task time on log kernel time,
fitted at the commit that defined the benchmark; README.md gives the fit).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
SETTLE_SAMPLES = 41
REF_KERNEL_S = 0.4e-3  # the kernel's time in the fast state of a 2-vCPU Xeon VM


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0  # seconds spent in the probe, excluded from clock()
        self._data = np.random.default_rng(0).random(4096)

    def kernel(self) -> float:
        """Seconds for one fixed kernel: a Python loop and four NumPy sorts."""
        t0 = perf_counter()
        s = 0
        for i in range(4000):
            s += i * i
        for _ in range(4):
            np.sort(self._data)
        return perf_counter() - t0

    def clock(self) -> float:
        """perf_counter() minus the time the probe has taken so far."""
        return perf_counter() - self.paused

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        self.samples.append(self.kernel())
        self.paused += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Sample at entry, every PERIOD_S of wall time, and at exit.

        Yields the index of the first sample of the interval; the samples
        from there on belong to it.
        """
        first = len(self.samples)
        self.sample()
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield first
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)
            self.sample()

    def median_since(self, first: int) -> float:
        return statistics.median(self.samples[first:])

    def settled(self) -> float:
        """Median of SETTLE_SAMPLES back-to-back kernels, for an interval the timer cannot cover."""
        first = len(self.samples)
        for _ in range(SETTLE_SAMPLES):
            self.sample()
        return self.median_since(first)


def at_reference(seconds: float, kernel_s: float, exponent: float) -> float:
    return seconds * (REF_KERNEL_S / kernel_s) ** exponent
