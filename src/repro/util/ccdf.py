"""Complementary-cumulative statistics for vulnerability charts.

Figures 2–6 of the paper plot, for each target AS, the *complementary
cumulative* count of attackers versus pollution size: a point ``(x, y)``
means "``y`` attackers produce at least ``x`` polluted ASes". The faster a
curve falls to zero, the more attack-resistant the target. This module
computes those curves plus the summary statistics quoted in the text
(average pollution for a successful attack, number of attackers exceeding a
pollution level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["CcdfCurve", "ccdf", "describe"]


@dataclass(frozen=True)
class CcdfCurve:
    """A step curve: ``counts[i]`` samples are ``>= values[i]``.

    ``values`` is strictly increasing; ``counts`` strictly decreasing.
    """

    values: tuple[int, ...]
    counts: tuple[int, ...]

    def count_at_least(self, threshold: int) -> int:
        """How many samples are >= *threshold* (paper: "N attackers can
        pollute more than X ASes")."""
        result = 0
        for value, count in zip(self.values, self.counts):
            if value >= threshold:
                return count
            result = count
        if not self.values or threshold > self.values[-1]:
            return 0
        return result

    def points(self) -> Sequence[tuple[int, int]]:
        return tuple(zip(self.values, self.counts))

    def area(self) -> int:
        """Sum of all samples — equals the integral of the CCDF over value
        steps; a single-number severity summary used to rank curves."""
        total = 0
        previous = 0
        for value, count in zip(self.values, self.counts):
            total += count * (value - previous)
            previous = value
        return total


def ccdf(samples: Iterable[int]) -> CcdfCurve:
    """Build the complementary cumulative curve of integer samples."""
    ordered = sorted(samples)
    n = len(ordered)
    values: list[int] = []
    counts: list[int] = []
    index = 0
    while index < n:
        value = ordered[index]
        values.append(value)
        counts.append(n - index)
        while index < n and ordered[index] == value:
            index += 1
    return CcdfCurve(tuple(values), tuple(counts))


@dataclass(frozen=True)
class SampleSummary:
    """Summary statistics of a pollution-count distribution."""

    count: int
    successful: int  # samples > 0
    mean: float
    mean_successful: float
    maximum: int

    def as_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "successful": self.successful,
            "mean": self.mean,
            "mean_successful": self.mean_successful,
            "maximum": self.maximum,
        }


def describe(samples: Iterable[int]) -> SampleSummary:
    """Summary of pollution samples in the paper's vocabulary.

    A "successful" attack is one that pollutes at least one AS; the paper's
    per-strategy numbers ("the average number of polluted ASes for a
    successful attack on AS98 is 1076") are means over successful attacks.
    """
    data = list(samples)
    if not data:
        return SampleSummary(0, 0, 0.0, 0.0, 0)
    successful = [value for value in data if value > 0]
    return SampleSummary(
        count=len(data),
        successful=len(successful),
        mean=sum(data) / len(data),
        mean_successful=(sum(successful) / len(successful)) if successful else 0.0,
        maximum=max(data),
    )
