"""Host-speed calibration of the end-to-end wall-clock metrics.

On a shared host the speed one process gets drifts by up to 1.5x from one
minute to the next, as other tenants load the cores, caches and memory
bus.  That drift is larger than the regressions the benchmark's bounds
are meant to catch, and a run's median cannot average it away when a
whole run falls in one slow spell.

So every timed operation is bracketed by two passes of a fixed reference
workload, one just before it and one just after it, both outside its
timed region, and the operation is reported in *reference time*::

    reference seconds = wall seconds / mean(factor before, factor after)
    factor            = mean over the kernels of (measured ÷ nominal seconds)

The host's speed also flickers from one millisecond to the next; one
pass samples an instant of it, while an operation of half a second lives
through many, so the two passes that bound the operation estimate its
speed better than one pass before it.

The reference workload does not call the program under test, so a change
to the program moves reference time exactly as it moves wall time under
the same host conditions.  Its four kernels cover the resources the
checkpoint path spends its time on: the Python interpreter, per-call
NumPy overhead on small arrays, NumPy streaming over a 1 MiB buffer,
and SHA-256 hashing.  :data:`NOMINAL_S` holds each kernel's
seconds on a quiet 2-core Xeon VM, so a factor of 1 means that host's
speed.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List

import numpy as np

#: Seconds each kernel takes on a quiet 2-core Xeon VM.
NOMINAL_S: Dict[str, float] = {
    "interpreter": 0.18e-3,
    "numpy_calls": 0.34e-3,
    "numpy_stream": 0.60e-3,
    "sha256": 0.12e-3,
}


class HostSpeed:
    """Measures the host's current speed against :data:`NOMINAL_S`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        rng = np.random.default_rng(0)  # fixed: independent of the workload seed
        self.buf = rng.integers(0, 256, 1 << 20, dtype=np.uint8)
        self.kernels: Dict[str, Callable[[], object]] = {
            "interpreter": self._interpreter,
            "numpy_calls": self._numpy_calls,
            "numpy_stream": self._numpy_stream,
            "sha256": self._sha256,
        }
        #: Every factor measured so far, in order.
        self.factors: List[float] = []

    # The kernels: fixed work, each mostly bound by one resource.
    @staticmethod
    def _interpreter() -> int:
        table: Dict[int, int] = {}
        for i in range(1500):
            table[i % 97] = table.get(i % 97, 0) + i
        return len(table)

    def _numpy_calls(self) -> int:
        found = 0
        for i in range(25):
            part = self.buf[i * 64 : (i + 1) * 64]
            found += np.unique(part).shape[0]
            found += np.concatenate((part, part)).shape[0]
            found += np.flatnonzero(part > 128).shape[0]
        return found

    def _numpy_stream(self) -> int:
        return int((self.buf ^ 7).sum())

    def _sha256(self) -> bytes:
        return hashlib.sha256(self.buf[: 1 << 17]).digest()

    def factor(self) -> float:
        """The mean over the kernels of measured ÷ nominal seconds.

        Each kernel runs once untimed first, so what the operation before
        left in the caches does not count as host speed.
        """
        clock = self.clock
        total = 0.0
        for name, kernel in self.kernels.items():
            kernel()
            start = clock()
            kernel()
            total += (clock() - start) / NOMINAL_S[name]
        value = total / len(self.kernels)
        self.factors.append(value)
        return value

    def span_factor(self, before: float) -> float:
        """Factor of an operation that ran since *before* was measured:
        the mean of *before* and a fresh measurement."""
        return 0.5 * (before + self.factor())
