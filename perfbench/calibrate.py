"""Machine-speed reference for calibrated timings.

The benchmark's cores are shared with other tenants, whose load slows
pure Python and BLAS alike by up to about 1.8x.  The slowdown holds for
seconds to minutes, so wall-clock medians from runs a few minutes apart
disagree by more than any useful regression bound.  A fixed reference
task runs between operations.  It uses only the standard library and
numpy and mixes the same kinds of work as the workloads: a Python loop
over matrix entries, JSON round trips of 17-digit floats, a complex
Hermitian eigensolve and a matrix product.  A calibrated time is a wall
time scaled by NOMINAL_MS over the median of the latest reference times.
It is the time the operation would take if the reference took NOMINAL_MS,
that is, on the machine at the speed it had when NOMINAL_MS was set.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import deque

import numpy as np

#: About the reference's median time on the machine the benchmark was tuned
#: on (x86-64 with AVX-512, 2 shared vCPUs, Python 3.11, numpy 2.4, OpenBLAS
#: 0.3.31 with one thread), so calibrated and wall-clock figures are close
#: there.
NOMINAL_MS = 1.0
#: Seconds between reference runs, and how many recent runs set the scale.
INTERVAL_S = 0.1
WINDOW = 5


class Reference:
    """A fixed unit of work, and the rolling median of its recent times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.hermitian = z + z.conj().T
        self.square = z / 8.0
        self.a = np.abs(rng.standard_normal((24, 24)))
        self.b = np.abs(rng.standard_normal((24, 24)))
        self.floats = [float(x) for x in rng.standard_normal(150)]
        self.recent: deque = deque(maxlen=WINDOW)
        self.all_ms: list[float] = []
        self.last = 0.0

    def work(self) -> None:
        a, b = self.a, self.b
        records = []
        for j in range(a.shape[0]):
            for k in range(j + 1, a.shape[0]):
                records.append((j, k, float(a[j, k]), float(b[j, k]), bool(a[j, k] > b[j, k])))
        text = json.dumps([format(x, ".17g") for x in self.floats])
        json.loads(text)
        np.linalg.eigh(self.hermitian)
        self.square @ self.square

    def run(self) -> None:
        start = time.perf_counter_ns()
        self.work()
        ms = (time.perf_counter_ns() - start) / 1e6
        self.recent.append(ms)
        self.all_ms.append(ms)
        self.last = time.perf_counter()

    def start(self) -> None:
        for _ in range(WINDOW):
            self.run()

    def poll(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.run()

    def scale(self) -> float:
        """Factor that turns a wall time measured now into a calibrated one."""
        return NOMINAL_MS / statistics.median(self.recent)
