"""Summary statistics used by the benchmark report."""

from __future__ import annotations

import math

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10  # a tail percentile is reported only with this many samples beyond it


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))  # round away float error in p * n


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Number of samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n`` samples beyond it."""
    for p in PERCENTILE_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None
