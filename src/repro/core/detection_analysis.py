"""Detector-deployment comparison (Section VI, Fig. 7 and its tables).

Runs the paper's detection experiment end to end: generate a shared
workload of random transit-pair hijacks, evaluate each probe
configuration against it, and package the Fig. 7 histograms, the
miss-rate summaries and the "top undetected attacks" tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import AttackOutcome
from repro.detection.analysis import DetectionStudy
from repro.detection.detector import HijackDetector
from repro.detection.probes import (
    ProbeSet,
    bgpmon_like_probes,
    tier1_probes,
    top_degree_probes,
)

__all__ = ["DetectorComparison", "paper_probe_sets", "compare_detectors"]


def paper_probe_sets(lab: HijackLab, *, seed: int = 0) -> list[ProbeSet]:
    """The three Fig. 7 configurations: 17 tier-1s, 24 BGPmon-like
    peers, and the 62 highest-degree ASes."""
    graph = lab.graph
    return [
        tier1_probes(graph),
        bgpmon_like_probes(graph, count=24, seed=seed),
        top_degree_probes(graph, count=62),
    ]


@dataclass(frozen=True)
class DetectorComparison:
    """Studies of several configurations over one shared workload."""

    studies: tuple[DetectionStudy, ...]
    workload_size: int

    def miss_rates(self) -> dict[str, float]:
        return {
            study.detector.probes.name: study.miss_rate()
            for study in self.studies
        }

    def best(self) -> DetectionStudy:
        return min(self.studies, key=lambda study: study.miss_rate())

    def worst(self) -> DetectionStudy:
        return max(self.studies, key=lambda study: study.miss_rate())


def compare_detectors(
    lab: HijackLab,
    probe_sets: Sequence[ProbeSet] | None = None,
    *,
    attack_count: int = 8000,
    seed: int = 0,
    workload: Sequence[AttackOutcome] | None = None,
) -> DetectorComparison:
    """The Fig. 7 experiment: one random-attack workload, many detectors.

    The paper uses 8,000 random attacks with attacker and target "chosen
    from the 6,318 transit ASes"; pass ``attack_count`` (or a precomputed
    ``workload``) to scale.
    """
    if probe_sets is None:
        probe_sets = paper_probe_sets(lab, seed=seed)
    if workload is None:
        workload = lab.random_attacks(attack_count, transit_only=True, seed=seed)
    studies = tuple(
        DetectionStudy.run(HijackDetector(probes), workload)
        for probes in probe_sets
    )
    return DetectorComparison(studies=studies, workload_size=len(workload))
