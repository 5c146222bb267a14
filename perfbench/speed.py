"""Machine-speed probe: a fixed numpy kernel timed between trials.

On a shared host the speed one process gets drifts by tens of percent over
minutes, so the median wall time of one run can differ from the next by
more than a regression bound although the code is the same.  The probe
times a fixed single-threaded unit of work (20 float64 256 x 256 matrix
products and 10 popcounts over 1M words) before set-up, after each set-up
and after every trial.  Each wall time is then reported at the reference
speed: scaled by REF_UNIT_S over the mean of the unit times measured just
before and just after it.  The probe runs no srpc code, so a change to the program moves
the scaled time by the same factor as the wall time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one unit takes at the reference speed: about the median unit time
# on 2 vCPUs of a shared Intel Xeon (family 6, model 143), one BLAS thread.
REF_UNIT_S = 0.04
REPEATS = 3  # units per sample; a sample is their median


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 256))
        self._words = rng.integers(0, 2**63, size=1 << 20, dtype=np.uint64)
        self.samples: list[float] = []

    def unit(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            self._a @ self._a
        for _ in range(10):
            np.bitwise_count(self._words).sum()
        return time.perf_counter() - t0

    def sample(self) -> float:
        """One sample, kept in ``samples``: the median of REPEATS units."""
        value = statistics.median(self.unit() for _ in range(REPEATS))
        self.samples.append(value)
        return value

    def scaled(self, seconds: float) -> tuple[float, float]:
        """(unit seconds around ``seconds``, ``seconds`` at the reference speed).

        Call it right after the timed work: it averages the last sample,
        taken before the work, with a new one.
        """
        before = self.samples[-1] if self.samples else self.sample()
        unit_s = (before + self.sample()) / 2
        return unit_s, seconds * REF_UNIT_S / unit_s
