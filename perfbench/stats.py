"""Summary statistics of the benchmark: medians, quartiles and the tail rule.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count, so a
tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Optional, Sequence, Tuple

#: Percentiles the tail rule may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(n: int, percentile: float) -> int:
    """1-based nearest rank, in exact arithmetic (99.9 % of 10000 is 9990)."""
    return max(math.ceil(Fraction(str(percentile)) * n / 100), 1)


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values`` (an observed sample)."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile {percentile} outside (0, 100]")
    return sorted(values)[_rank(len(values), percentile) - 1]


def beyond_count(n: int, percentile: float) -> int:
    """Samples ranked above the nearest-rank ``percentile`` of ``n`` samples."""
    return n - _rank(n, percentile)


def tail_percentile(values: Sequence[float]
                    ) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(percentile, value, sample_count)``, or ``None`` when even the
    median has fewer than ``MIN_BEYOND`` samples above it (fewer than about
    twenty samples in all).
    """
    n = len(values)
    for percentile in TAIL_PERCENTILES:
        if n and beyond_count(n, percentile) >= MIN_BEYOND:
            return percentile, nearest_rank(values, percentile), n
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Uses :func:`statistics.quantiles` with its default method, so the figure
    matches what a reader computes from the reported values.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0


__all__ = ["MIN_BEYOND", "TAIL_PERCENTILES", "beyond_count", "median",
           "nearest_rank", "relative_iqr", "tail_percentile"]
