"""Fixed reference kernels that convert wall seconds into seconds at a nominal machine speed.

On a shared VM a vCPU's speed drifts: the same unit of work took a third
longer in one ten-minute stretch than in another, and the process's CPU time
drifted with its wall time, so neither a longer run nor ``process_time``
removes it. A kernel's work never changes, so its time follows the
machine's speed. Every measured step is bracketed by a reading of the
kernels, and the step's wall time is divided by their mean slowness before
and after it (kernel time over nominal time). The result reads in seconds
at the kernels' nominal speed.

The drift does not slow every kind of work alike, and which kernel tracked
a workload best changed from one stretch of minutes to the next. So every
workload is scaled by the same three kernels, weighted equally: a BLAS
product, small-array numpy steps and pure Python, one for each kind of work
the workloads do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median wall seconds of one run of each kernel on a shared 2-vCPU Intel
# Xeon VM at 2.1 GHz with one BLAS thread, numpy 2.4 and Python 3.11.
NOMINAL_S = {"blas": 0.055, "numpy": 0.045, "python": 0.045}


class _Kernels:
    """The three kernels. Arrays are allocated once, so no reading times the allocator."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((4096, 64))
        self.w = rng.standard_normal((64, 256)) * 0.1
        self.z = np.empty((4096, 256))
        self.steps = rng.standard_normal((48, 16, 128))
        self.u = rng.standard_normal((32, 128)) * 0.1

    def blas(self) -> float:
        """Products and ``tanh`` the shape of the head's input projection over a wide batch."""
        total = 0.0
        for _ in range(8):
            np.matmul(self.x, self.w, out=self.z)
            np.tanh(self.z, out=self.z)
            total += float(self.z.sum())
        return total

    def numpy(self) -> float:
        """LSTM-like steps at batch 16: many small arrays, as in a training batch."""
        total = 0.0
        for _ in range(27):
            h = np.zeros((16, 32))
            c = np.zeros((16, 32))
            for x in self.steps:
                z = x + h @ self.u
                gates = 1.0 / (1.0 + np.exp(-z[:, :96]))
                c = gates[:, 32:64] * c + gates[:, :32] * np.tanh(z[:, 96:])
                h = gates[:, 64:] * np.tanh(c)
            total += float(h.sum())
        return total

    @staticmethod
    def python() -> int:
        """Dict, integer and string work, as in the LM and codec loops."""
        counts: dict[int, int] = {}
        total = 0
        for i in range(210_000):
            key = i % 97
            counts[key] = counts.get(key, 0) + 1
            total += i * i % 7
        return total + len(sorted(str(k) for k in range(6000)))


class Yardstick:
    """Scales each measured step by the kernels' slowness just before and after it."""

    def __init__(self):
        kernels = _Kernels()
        self.kernels = {kind: getattr(kernels, kind) for kind in NOMINAL_S}
        self.readings: list[float] = []
        self.start()
        self.factor = self.last

    def slowness(self) -> float:
        """Mean of each kernel's time over its nominal time: 1.0 at nominal speed, 1.25 when 25% slower."""
        ratios = []
        for kind, kernel in self.kernels.items():
            start = time.perf_counter()
            kernel()
            ratios.append((time.perf_counter() - start) / NOMINAL_S[kind])
        return statistics.mean(ratios)

    def start(self) -> None:
        """Read the kernels afresh before a step that does not directly follow the previous one."""
        self.last = self.slowness()
        self.readings.append(self.last)

    def scale(self, wall_s: float) -> float:
        """``wall_s`` of the step that ran since the last reading, in seconds at nominal speed."""
        now = self.slowness()
        self.readings.append(now)
        self.factor = (self.last + now) / 2
        self.last = now
        return wall_s / self.factor

    def median_slowness(self) -> float:
        return statistics.median(self.readings)
