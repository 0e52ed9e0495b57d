"""Machine speed gauge: a fixed reference kernel timed during a run.

On a shared machine the speed of one core drifts by 15-50 % over minutes
(other tenants, clock changes), which moves every wall time of a run
together.  The gauge times a fixed kernel with the same mix as the library
calls (LAPACK SVD and Hermitian eigh, small numpy products, JSON encoding,
interpreted loops) every INTERVAL_S of loop time.  A measured interval is
reported in reference seconds: multiplied by REFERENCE_S / t, where t is
the median of the latest kernel times, so that a drift of the machine
cancels between a run and the kernel timed next to it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Kernel time that defines the reference speed, and so the unit of every
# reported time: a round figure near the kernel's median on one core of a
# shared 2-core x86_64 machine with OpenBLAS 0.3.31, where it ranged from
# 5 to 7 ms as the machine's speed drifted.
REFERENCE_S = 0.005
INTERVAL_S = 0.5
WINDOW = 3


class SpeedGauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._tall = rng.standard_normal((160, 60))
        H = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
        self._herm = H + H.conj().T
        self._small = rng.standard_normal((12, 12))
        self._doc = {"A": rng.standard_normal((20, 20)).tolist()}
        self.samples = []
        self._last = -np.inf

    def _kernel(self) -> float:
        start = time.perf_counter()
        np.linalg.svd(self._tall)
        np.linalg.eigh(self._herm)
        X = self._small
        for _ in range(200):
            X = 0.5 * (X @ self._small) / np.linalg.norm(X)
        json.dumps(self._doc, indent=2, sort_keys=True)
        total = 0
        for i in range(20000):
            total += i % 7
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append(self._kernel())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Reference seconds per measured second, from the latest samples."""
        return REFERENCE_S / statistics.median(self.samples[-WINDOW:])
