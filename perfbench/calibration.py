"""Machine-speed probe: a tiny fixed burst of work timed every 0.1 s.

The 2-vCPU virtual machine the baseline was measured on shares its cores with
other tenants, and its speed changes within seconds: the same post-processing
round took from 6.8 s to 11.4 s in consecutive runs.  While measuring, a
SIGALRM timer runs a ~1 ms burst of interpreter, LAPACK and elementwise work
(code no change to steincv can touch) and records how long it took.  A timed
interval is reported as

    (elapsed - time spent in the probe) * NOMINAL_BURST_S / median(bursts),

the median taken over the bursts inside the interval, or the last
``MIN_BURSTS`` bursts when the interval is too short to hold that many.  Times
so read as seconds on the machine at its nominal speed.  On repeated jobs the
quartile spread fell from 14-28 % (raw) to 3-10 % (rescaled); the raw values
are printed next to the rescaled ones.

Signal handlers run between bytecodes of the main thread, so a burst never
interrupts native code; interrupted system calls are retried by Python.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_BURST_S = 0.0008   # median burst on the baseline machine (README)
INTERVAL_S = 0.1
MIN_BURSTS = 5


class SpeedProbe:
    """Context manager sampling machine speed while it is active."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((80, 80))
        self._spd = a @ a.T + 80.0 * np.eye(80)
        self._x = rng.standard_normal((40, 100))
        self.bursts: list[float] = []
        self.spent = 0.0            # seconds spent inside the signal handler
        self._previous = None

    def _burst(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(6000):
            s += i * i
        np.linalg.cholesky(self._spd)
        np.logaddexp(0.0, self._x).sum()
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.bursts.append(self._burst())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self.bursts += [self._burst() for _ in range(MIN_BURSTS)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self) -> tuple[int, float, float]:
        return len(self.bursts), self.spent, time.perf_counter()

    def stop(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(raw seconds without the probe's own time, seconds at nominal speed)."""
        end = time.perf_counter()
        first, spent, t0 = mark
        raw = end - t0 - (self.spent - spent)
        window = self.bursts[first:]
        if len(window) < MIN_BURSTS:
            window = self.bursts[-MIN_BURSTS:]
        return raw, raw * NOMINAL_BURST_S / statistics.median(window)
