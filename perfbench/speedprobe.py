"""Samples the machine's speed while a run measures, so that end-to-end times
can be given at a fixed reference speed.

The machine this benchmark was built on drifts: a fixed loop runs 15-25%
faster or slower from one minute to the next, so raw times of the same code
spread more between runs than any useful bound.  The probe runs a fixed
reference kernel of its own every ``INTERVAL_S`` of wall time, from a
``SIGALRM`` handler in the measuring thread.  The kernel mixes what the
workloads do: a Python-level loop of 4x4 numpy products (like the RK4 sweeps)
and elementwise work on a (10,000, 2) array (like the simulator's per-agent
steps).  It never touches the program's state, and its own time is taken out
of every interval the benchmark measures.

``scale(window)`` is ``REFERENCE_MS`` over the median kernel time of the
samples taken in a phase of the run (set-up, or one operation), so a time
multiplied by it is that time at the speed where the kernel takes
``REFERENCE_MS``.  A phase too short for ``MIN_SAMPLES`` samples is scaled by
the median of the whole run.  The kernel is fixed in this file and shares
only the caches with the program, so a faster or slower program shows in
full.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
REFERENCE_MS = 4.3      # near the kernel's median time inside runs on the
                        # 2-core build machine (4.3-5.0 ms)
MIN_SAMPLES = 5

_A = np.array([[-0.30, 0.10, 0.05, 0.00],
               [0.00, -0.20, 0.10, 0.05],
               [0.05, 0.00, -0.10, 0.10],
               [0.00, 0.05, 0.00, -0.25]])
_X0 = np.linspace(-1.0, 1.0, 20_000).reshape(10_000, 2)
_G = np.array([[0.9, 0.1], [-0.1, 0.9]])


def kernel() -> float:
    """The reference work: fixed inputs, fixed operation count."""
    x = np.ones(4)
    h = 1e-3
    for _ in range(120):
        k1 = _A @ x
        k2 = _A @ (x + 0.5 * h * k1)
        k3 = _A @ (x + 0.5 * h * k2)
        k4 = _A @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("reference kernel diverged")
    y = _X0
    for _ in range(16):
        y = y @ _G.T + 0.01 * np.sqrt(np.abs(y) + 1.0)
    return float(x.sum() + y[0, 0])


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []     # kernel times, s
        self.busy = 0.0                    # summed kernel time, s

    def _sample(self, signum, frame) -> None:
        # the kernel allocates; keep a collection of the program's objects
        # out of its time
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.busy += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Index of the next sample; two marks bound a phase's window."""
        return len(self.samples)

    def median_ms(self, window: slice = slice(None)) -> float:
        samples = self.samples[window]
        if len(samples) < MIN_SAMPLES:
            samples = self.samples
        return 1e3 * statistics.median(samples)

    def scale(self, window: slice = slice(None)) -> float:
        return REFERENCE_MS / self.median_ms(window)
