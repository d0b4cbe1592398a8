"""Reference kernel that turns solve times into machine-independent units.

On a shared 2-vCPU Intel Xeon VM (Python 3.11.7) the interpreter's speed
drifts by tens of percent from one minute to the next: the same seed, run
five times in a row, gave median ``multi3_sweep`` solve times from 53 to
84 ms.  The end-to-end solve metrics are therefore reported in units of
this kernel ("ref"): each solve's wall time is divided by the running median
of the kernel timed right after the neighbouring solves.  The kernel is
fixed pure-Python float work of the same kind as singulim's evaluator (a
power table and a term loop), and it calls nothing from singulim, so a
change to the library moves the solve times and leaves the kernel alone.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# 60 terms of degree <= 6 in two variables: (coefficient, ((var, exp), ...)).
_TERMS = tuple(
    (((k * 37) % 19 - 9) / 7.0,
     tuple((i, 1 + (k * (i + 3)) % 6) for i in range(2) if (k + i) % 5))
    for k in range(60)
)
_POINTS = tuple((0.3 + s * 1e-3, -0.7 + s * 2e-3) for s in range(40))


def kernel() -> float:
    """Evaluate the fixed polynomial at the fixed points; about 0.5 ms."""
    total = 0.0
    for x in _POINTS:
        powers = [[1.0] * 7 for _ in x]
        for i, v in enumerate(x):
            row = powers[i]
            for e in range(1, 7):
                row[e] = row[e - 1] * v
        for coeff, pairs in _TERMS:
            term = coeff
            for i, e in pairs:
                term *= powers[i][e]
            total += term
    return total


def time_kernel() -> float:
    """Wall time of one kernel call, in seconds."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def rolling_median(values: list[float], width: int = 9) -> list[float]:
    """Median of each value's centred window of ``width`` (clipped at the ends)."""
    half = width // 2
    return [
        statistics.median(values[max(0, i - half):i + half + 1])
        for i in range(len(values))
    ]
