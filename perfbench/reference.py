"""A fixed reference computation that measures how fast the host is right now.

On a shared host the speed of a core can drift by a factor of 1.5 or more
within minutes, and a whole run can fall into a slow or a fast phase.  The
benchmark times this computation next to every pass and every set-up probe
and scales the pass and set-up times to a host on which it takes
``NOMINAL_S``.  The computation is the benchmark's own code, so a change to
the package cannot change its time.

It mixes what a pass spends its time on: scalar complex arithmetic in Python
(Newton steps, as in root continuation), numpy transcendental functions on
arrays of a few thousand points (quadrature levels), and many small numpy
calls in a Python loop (per-call overhead in the verifier).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds the reference takes on the host the scaled times refer to.
NOMINAL_S = 0.05
REPEATS = 3


def reference() -> complex:
    acc = 0j
    for k in range(20000):
        z = complex(1 + (k % 7) * 0.1, 0.3)
        for _ in range(3):
            z -= (z * z * z - 1) / (3 * z * z)
        acc += z
    for n in (2**10, 2**12, 2**14):
        t = np.linspace(0, 2 * np.pi, n)
        acc += (np.exp(1j * t) * np.log(2 + np.cos(t))).sum()
    x = np.arange(16, dtype=complex)
    for _ in range(3000):
        acc += (x * 1.0001).sum()
    return acc


def reference_seconds() -> float:
    """Median wall time of REPEATS reference computations."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by the mean of the reference times around it.

    ``refs`` has one more entry than ``seconds``: refs[i] was taken just
    before seconds[i] and refs[i + 1] just after.
    """
    return [NOMINAL_S * s / ((a + b) / 2) for s, a, b in zip(seconds, refs, refs[1:])]
