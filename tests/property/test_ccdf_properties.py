"""Property-based tests for CCDF curves and summaries."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.ccdf import ccdf, describe

samples = st.lists(st.integers(min_value=0, max_value=10_000), max_size=200)


@given(samples)
def test_values_strictly_increasing_counts_strictly_decreasing(data):
    curve = ccdf(data)
    assert list(curve.values) == sorted(set(data))
    assert all(a > b for a, b in zip(curve.counts, curve.counts[1:]))


@given(samples)
def test_total_is_sample_count(data):
    assert ccdf(data).count_at_least(0) == len(data)


@given(samples, st.integers(min_value=0, max_value=10_001))
def test_count_at_least_is_brute_force(data, threshold):
    curve = ccdf(data)
    assert curve.count_at_least(threshold) == sum(
        1 for value in data if value >= threshold
    )


@given(samples)
def test_count_at_least_monotone(data):
    curve = ccdf(data)
    counts = [curve.count_at_least(t) for t in range(0, 10_001, 500)]
    assert counts == sorted(counts, reverse=True)


@given(samples)
def test_area_is_sum(data):
    assert ccdf(data).area() == sum(data)


@given(samples)
def test_describe_consistency(data):
    summary = describe(data)
    assert summary.count == len(data)
    assert summary.successful == sum(1 for value in data if value > 0)
    if data:
        assert summary.maximum == max(data)
        assert summary.mean * summary.count == pytest.approx(sum(data))
    if summary.successful:
        assert summary.mean_successful >= summary.mean
