"""Convergence statistics for the generation-stepped flood.

The paper reports that "convergence is generally reached within 5 to 10
generations". This module measures that claim on any topology: it floods
announcements from sampled origins through the oracle's
:class:`~repro.oracle.reference.ReferenceSimulator`, collects
per-announcement generation counts and per-generation acceptance volumes,
and summarizes them — both as a validation of the flood against the
paper's observation and as a characterization tool for other topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.topology.view import RoutingView
from repro.util.rng import make_rng

__all__ = ["measure_convergence", "generation_wavefront"]


@dataclass(frozen=True)
class ConvergenceStats:
    """Distribution of generations-to-convergence over many announcements."""

    samples: int
    histogram: Mapping[int, int]

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return (
            sum(generations * count for generations, count in self.histogram.items())
            / self.samples
        )

    @property
    def maximum(self) -> int:
        return max(self.histogram, default=0)

    @property
    def minimum(self) -> int:
        return min(self.histogram, default=0)

    def within(self, low: int, high: int) -> float:
        """Fraction of announcements converging within [low, high]
        generations (the paper's 5–10 band)."""
        if not self.samples:
            return 0.0
        hits = sum(
            count
            for generations, count in self.histogram.items()
            if low <= generations <= high
        )
        return hits / self.samples


def measure_convergence(
    view: RoutingView,
    *,
    origins: Sequence[int] | None = None,
    sample: int = 50,
    seed: int = 0,
) -> ConvergenceStats:
    """Run sampled announcements and record generations to convergence."""
    from repro.oracle.reference import ReferenceSimulator

    if origins is None:
        rng = make_rng(seed, "convergence-origins")
        origins = rng.sample(range(len(view)), min(sample, len(view)))
    flood = ReferenceSimulator(view)
    histogram: dict[int, int] = {}
    for origin in origins:
        report = flood.announce(origin)
        histogram[report.generations] = histogram.get(report.generations, 0) + 1
    return ConvergenceStats(samples=len(origins), histogram=dict(sorted(histogram.items())))


def generation_wavefront(view: RoutingView, origin: int) -> list[int]:
    """Accepted announcements per generation for one origin.

    This is the "fan-out" the paper's Fig. 1 frames visualize: a small
    first generation, an explosive middle, and a tail as the announcement
    saturates the mesh.
    """
    from repro.oracle.reference import ReferenceSimulator

    report = ReferenceSimulator(view).announce(origin)
    counts = [0] * report.generations
    for event in report.events:
        if event.accepted:
            counts[event.generation - 1] += 1
    return counts
