"""The machine's speed, sampled while the benchmark runs.

On a shared machine the same call's wall time drifts by tens of percent
within a second as other tenants come and go, and its thread CPU time
drifts with it. So while a run measures, a SIGALRM timer runs a tiny fixed
pure-Python probe every INTERVAL_S, from the main thread between
bytecodes. A timed step's wall time, less the probes that ran inside it,
is then rescaled to the speed at which the probe takes REFERENCE_S, using
the median probe time during the step. A step too short to hold NEAREST
probes uses the NEAREST probes around it.

A change to the package moves its steps' times but not the probe's, so
rescaling keeps every change visible; it only removes the machine's drift.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025
NEAREST = 7
# About the probe's time on a 2-core x86-64 VM, between its fast state
# (0.45 ms) and its slow one (0.65 ms).
REFERENCE_S = 0.0005


def _probe() -> None:
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = str(i)


class SpeedSampler:
    """Samples the probe's time while active (a context manager)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median probe time around [t0, t1); 1 when
        nothing was sampled."""
        lo, hi = self._window(t0, t1)
        if hi - lo >= NEAREST:
            return REFERENCE_S / statistics.median(self.durations[lo:hi])
        mid = (t0 + t1) / 2
        around = range(max(0, lo - NEAREST), min(len(self.starts), hi + NEAREST))
        nearest = sorted(around, key=lambda j: abs(self.starts[j] - mid))[:NEAREST]
        if not nearest:
            return 1.0
        return REFERENCE_S / statistics.median(self.durations[j] for j in nearest)

    def rescaled(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed for a step timed from t0 to t1."""
        lo, hi = self._window(t0, t1)
        return (t1 - t0 - sum(self.durations[lo:hi])) * self.factor(t0, t1)
