"""Host-speed calibration for the benchmark's timings.

On a shared host a CPU's speed drifts: over a few minutes the same command
can take 45% longer, and slow phases last longer than a benchmark run.
The benchmark therefore times this fixed numpy kernel several times in
every run, interleaved with the timed commands, and rescales the run's
times to the host speed at which the kernel takes ``REFERENCE_S`` seconds.

The kernel mixes the two kinds of work ordquant does: small numpy calls
dominated by per-call overhead (as in the 400-observation fits) and
200k-element vector operations (as in the large panel).  It uses numpy
only, so no change to ordquant can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of calibration_s() on the 2-vCPU Intel Xeon host (Python
# 3.11, numpy 2.4) where the benchmark was written.  It only sets the
# scale: comparisons between commits need it fixed, not exact.
REFERENCE_S = 0.2

_SMALL_ITERATIONS = 8000
_LARGE_ITERATIONS = 12


def calibration_s() -> float:
    """Seconds this process takes for the fixed calibration kernel."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((400, 3))
    beta = np.zeros(3)
    big = rng.standard_normal((200_000, 3))
    big_beta = np.ones(3)
    start = time.perf_counter()
    for i in range(_SMALL_ITERATIONS):
        r = x @ beta + rng.normal(size=400)
        beta[i % 3] = float(np.sqrt(np.maximum(r * r, 1e-12)).sum()) * 1e-6
    for i in range(_LARGE_ITERATIONS):
        r = big @ big_beta + rng.normal(size=200_000)
        big_beta[i % 3] = float(np.sqrt(np.maximum(r * r, 1e-12)).sum()) * 1e-9
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples taken between a run's timed commands."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(calibration_s())

    @property
    def factor(self) -> float:
        """Multiplier turning this run's measured seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
