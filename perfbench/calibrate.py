"""Host-speed calibration: a fixed loop timed next to every measurement.

The shared 2-vCPU hosts this benchmark runs on change speed by 20-40%
over tens of seconds, so medians within one run cannot make runs minutes
apart agree. ``loop()`` is a fixed Nesterov-type iteration on the 2-D
Rosenbrock gradient, written here and not imported from finiteflow, so
that no change to the program moves it: the same mix of interpreter work
and small numpy operations as a sweep step. It is timed right before and
right after each measured interval, and the interval is divided by the
mean of the two, times ``REFERENCE_S``. The result is the interval in
seconds at the reference host speed, the speed at which ``loop()`` takes
``REFERENCE_S`` seconds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

STEPS = 30000
BLOCK = 1000
# About the median loop() time over the baseline's runs (2 vCPU Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4). A fixed constant: changing it rescales
# every normalized time.
REFERENCE_S = 0.44


def _gradient(x: np.ndarray) -> np.ndarray:
    r = x[1] - x[0] * x[0]
    return np.array([2.0 * (x[0] - 1.0) - 0.8 * x[0] * r, 0.4 * r])


def _direction(g: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(g))
    return -g / norm ** (1.0 / 3.0) if norm > 0.0 else g


def loop(steps: int = STEPS) -> float:
    """Run the fixed loop; returns a checksum so that it cannot be skipped.

    Like a sweep cell, each block of ``BLOCK`` steps keeps a copy of every
    iterate and stacks them at its end; loops that keep nothing track the
    sweeps' speed less well."""
    x = np.array([0.3, 1.7])
    v = np.zeros(2)
    checksum = 0.0
    for start in range(0, steps, BLOCK):
        xs, fs = [], []
        for _ in range(min(BLOCK, steps - start)):
            d = _direction(_gradient(x + 0.9 * v))
            v = 0.9 * v + 1.0e-3 * d
            x = x + v
            xs.append(x.copy())
            fs.append(float(x @ x))
        checksum += float(np.stack(xs).sum() + np.asarray(fs).sum())
    return checksum


def seconds(steps: int = STEPS) -> float:
    """Wall time of one ``loop()``."""
    t0 = perf_counter()
    loop(steps)
    return perf_counter() - t0


def normalize(interval_s: float, before_s: float, after_s: float) -> float:
    """``interval_s`` at the reference speed, given the loop times measured
    right before and right after it."""
    return interval_s * REFERENCE_S / (0.5 * (before_s + after_s))
