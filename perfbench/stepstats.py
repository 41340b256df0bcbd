"""Order statistics of step times."""

from __future__ import annotations

import math

# tail percentiles the benchmark may report, highest first
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` values lie above the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def rung(n: int) -> float:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND`` of
    ``n`` values beyond it, or the lowest rung when ``n`` is too small."""
    return next((p for p in TAIL_LADDER if beyond(n, p) >= TAIL_MIN_BEYOND),
                TAIL_LADDER[-1])
