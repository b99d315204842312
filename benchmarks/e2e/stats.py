"""Percentiles, the sample-count rule and the run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *samples* (0 < pct <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported(count: int, pct: float) -> bool:
    """Does a sample of *count* leave ``MIN_BEYOND`` samples beyond *pct*?"""
    return count * (100.0 - pct) / 100.0 >= MIN_BEYOND


def percentile_or_zero(samples: Sequence[float], pct: float) -> float:
    """The percentile when the sample supports it, else 0.0 (not reported)."""
    return percentile(samples, pct) if supported(len(samples), pct) else 0.0


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(reference: float, value: float, better: str) -> float:
    """By what share of *reference* is *value* worse (negative: better)?"""
    if reference == 0:
        return 0.0 if value == 0 else math.inf
    change = (value - reference) / abs(reference)
    return -change if better == "higher" else change
