"""Step timing, with the machine's speed measured between steps.

The benchmark runs on shared machines whose speed drifts: on a shared
2-vCPU x86_64 virtual machine, the same fedbilevel work ran up to twice as
slow for minutes at a time, the whole process at once. A ``StepClock`` times
every outer step. Every ``_INTERVAL`` seconds, between two steps, it also
times a fixed calibration burst: small numpy and interpreter work that does
not touch fedbilevel. The burst is timed outside every step.

Right after each burst the clock can also run the workload's set-up once,
timed as a set-up sample: so set-up is sampled across the whole run, as the
steps are, and not in a few short stretches whose speed drifts together.

A step's or set-up's time scaled by ``REFERENCE_BURST_S / burst time`` is
its time at the reference speed, using the median of the last few bursts. On that
machine the ratio of step time to burst time held within about 3% over
minutes in which the raw step time moved by 30%. It did not hold for
d=128 kernels that stream 30 MB of client data: their speed moved with
memory contention that neither this burst nor a streaming one tracked.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_WINDOW = 5        # bursts in the rolling median
_INTERVAL = 0.2    # seconds between bursts while steps are timed
_WARM_UP = 20      # untimed bursts before the first step
# burst time on that machine (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) when it
# ran fast; it only sets the scale of the reported numbers
REFERENCE_BURST_S = 0.62e-3

_A = np.random.default_rng(1).normal(size=(10, 10))
_V = np.ones(10)
_BIG = np.random.default_rng(2).normal(size=(8, 64, 64))
_IDX = np.array([1, 3, 4, 6])


def calibration_burst() -> float:
    """Seconds for a fixed mix of lane-like generator draws, small matvecs,
    dict and stack/mean work, and one fancy-indexed mean of 64x64 blocks."""
    t0 = time.perf_counter()
    for k in range(16):
        j = int(np.random.default_rng(k).integers(8))
        d = {i: _A @ _V + j for i in range(8)}
        np.stack([d[i] for i in sorted(d)]).mean(axis=0)
    _BIG[_IDX].mean(axis=0)
    return time.perf_counter() - t0


class StepClock:
    """Times steps between ``mark()`` calls; between steps, when due, calibrates
    and then times one call of ``setup`` (if set)."""

    def __init__(self):
        self.reference_s = REFERENCE_BURST_S
        self.setup = None                   # the workload's set-up, sampled after bursts
        self.setups: list[tuple[float, float]] = []   # (seconds, burst seconds)
        self.bursts: list[float] = []       # every burst of the run
        self._speed = None                  # rolling median burst time
        self._start = None                  # start of the open step
        self._last_burst = -float("inf")
        self._steps: list[tuple[float, float]] = []   # (seconds, burst seconds)
        self._hooked = None

    def warm_up(self) -> None:
        for _ in range(_WARM_UP):
            calibration_burst()

    def mark(self) -> None:
        """Close the open step (if any) and open the next one."""
        now = time.perf_counter()
        if self._start is not None:
            self._steps.append((now - self._start, self._speed))
        if now - self._last_burst >= _INTERVAL:
            self.bursts.append(calibration_burst())
            self._speed = statistics.median(self.bursts[-_WINDOW:])
            if self.setup is not None:
                t0 = time.perf_counter()
                self.setup()
                self.setups.append((time.perf_counter() - t0, self._speed))
            self._last_burst = now
            now = time.perf_counter()
        self._start = now

    def take(self) -> list[tuple[float, float]]:
        """(seconds, burst seconds) of the steps since the last take(); no step stays open."""
        out, self._steps, self._start = self._steps, [], None
        return out

    def hook(self, ledger_cls):
        """Mark at every ``finish_outer`` of ``ledger_cls``: once per outer iteration."""
        self._hooked = (ledger_cls, ledger_cls.finish_outer)
        original, mark = ledger_cls.finish_outer, self.mark

        def finish_outer(ledger):
            original(ledger)
            mark()
        ledger_cls.finish_outer = finish_outer
        return self

    def unhook(self) -> None:
        if self._hooked is not None:
            cls, original = self._hooked
            cls.finish_outer = original
            self._hooked = None

    def machine_factor(self) -> float:
        """Reference burst time over the run's median burst time."""
        return self.reference_s / statistics.median(self.bursts)
