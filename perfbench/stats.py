"""Order statistics for the benchmark's latency metrics.

A percentile is reported only when enough samples lie beyond it to make
it more than one outlier: the highest reportable percentile is the
highest of :data:`PERCENTILES` with at least :data:`MIN_BEYOND` samples
above it.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Candidate percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile *q* among *n* sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    # round() drops float noise such as 99.9 / 100 * 10000 = 9990.000000000002
    return min(n, max(1, math.ceil(round(q / 100.0 * n, 9))))


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the *q*-th percentile's rank."""
    return n - rank(n, q)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* of *values*."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def highest_percentile(n: int) -> float:
    """Highest of :data:`PERCENTILES` with ≥ :data:`MIN_BEYOND` samples
    beyond it (0.0 when even the median has too few)."""
    best = 0.0
    for q in PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
