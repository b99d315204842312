"""Percentiles, the sample-count rule and the spread the driver computes."""

from __future__ import annotations

import math
import statistics

import pytest

from benchmarks.e2e import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 95) == 95
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.supported(200, 95) and not stats.supported(199, 95)
    assert stats.supported(1000, 99) and not stats.supported(999, 99)
    assert stats.supported(20, 50) and not stats.supported(19, 50)
    # The daemon's open-loop step: about 1,000 POSTs carry a p95, not a p99.
    assert stats.supported(1080, 95) and not stats.supported(900, 99)


def test_unsupported_percentile_is_reported_as_zero():
    assert stats.percentile_or_zero(list(range(100)), 95) == 0.0
    assert stats.percentile_or_zero(list(range(200)), 95) == 189


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    first, _second, third = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (third - first) / statistics.median(values)


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(2.0, 2.3, "lower") == pytest.approx(0.15)
    assert stats.worsening(0.0, 0.0, "lower") == 0.0
    assert stats.worsening(0.0, 0.1, "lower") == math.inf  # failed_frac: any increase
