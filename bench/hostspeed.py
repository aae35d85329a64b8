"""Host speed, read from a fixed calibration kernel.

The shared 2-vCPU host the benchmark was set up on changes speed by up to
a factor of 1.8, in phases that last from a second to over a minute, and
every process on it slows down together.  A run reads the host's speed
right before and right after each timed interval by timing a fixed
kernel, and scales the interval to the reference speed:

    scaled = wall * REFERENCE_S / kernel_time

The kernel mixes Python-level loops with numpy operations on arrays of 200
matrices and of one matrix, as ahxray's batched and width-1 solvers do.
Code of the two kinds slows by different amounts there, and the mix read
the speed of every workload better than either part alone.  Its inputs
are fixed, not drawn from the run's seed, and it calls nothing from
ahxray, so a change to ahxray cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# kernel time at the reference speed: about its time in the host's quick
# phases on the 2-vCPU machine the benchmark was set up on
REFERENCE_S = 0.010
REPS = 5

_RNG = np.random.default_rng(12345)
_BATCH = (_RNG.normal(size=(200, 2, 2)) + 0j, _RNG.normal(size=(200, 3)))
_SINGLE = (_RNG.normal(size=(1, 2, 2)) + 0j, _RNG.normal(size=(1, 3)))


def _steps(mats: np.ndarray, points: np.ndarray, n: int) -> np.ndarray:
    acc = mats.copy()
    for i in range(n):
        weight = (np.exp(-np.sum(points * points, axis=1))
                  * np.sin(points[:, 0] + 1e-3 * i))
        acc = acc @ mats * 0.5 + weight[:, None, None] * mats
    return acc


def _kernel() -> None:
    # the two parts take about the same time
    _steps(*_BATCH, 50)
    _steps(*_SINGLE, 400)


def kernel_time() -> float:
    """Median wall time of REPS runs of the kernel, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that takes a wall time measured between two kernel readings
    to the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))


class Stopwatch:
    """Times an interval in laps and scales each lap by the kernel readings
    at its two ends, so that a long solve follows speed changes within it.

    The readings themselves are not timed.  The reading that ends one
    interval begins the next.
    """

    def __init__(self):
        self.reading = kernel_time()
        self.wall = self.scaled = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._t0
        after = kernel_time()
        self.wall += wall
        self.scaled += wall * scale(self.reading, after)
        self.reading = after
        self._t0 = time.perf_counter()


_kernel()   # warm-up: first-call allocations stay out of every reading
