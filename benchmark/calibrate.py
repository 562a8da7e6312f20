"""A fixed reference loop that measures how fast the machine is right now.

On a shared host the speed of one core drifts by up to a third within
seconds to minutes, and pure-Python, small-array and large-array code all
drift together.  The worker runs this loop before and after every job, and
reports job time as a multiple of the loop time around it, which cancels
the drift that raw wall time carries from run to run.

The loop mixes the three kinds of work quadlab's jobs do: many numpy calls
on one-row arrays (the noise hash and one-point extraction), plain Python
bytecode (argument handling, report building), and passes over large arrays
(bulk residuals and norms).  It must never import or change with quadlab:
it is the yardstick, not the thing measured.
"""

from __future__ import annotations

import time

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9)
_SHIFT = np.uint64(30)
# 1 MiB, so the loop adds little to the worker's peak RSS.
_ROWS = np.linspace(-1.0, 1.0, 16_384 * 8).reshape(16_384, 8)


def calibration_seconds() -> float:
    """Wall time of one pass of the reference loop (about 0.1 s)."""
    start = time.perf_counter()
    z = np.ones(1, dtype=np.uint64)
    for _ in range(15_000):
        z = (z + _GAMMA) ^ (z >> _SHIFT)
        z = z * _MIX
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    for _ in range(36):
        np.sqrt(np.sum(_ROWS * _ROWS, axis=-1))
    return time.perf_counter() - start
