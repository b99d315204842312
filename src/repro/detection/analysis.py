"""Detector-deployment analysis: the Fig. 7 study and probe placement.

:class:`DetectionStudy` aggregates one detector's reports over a workload
of random attacks into exactly what Fig. 7 plots per configuration — a
histogram of attacks by number of probes triggered (the "0" bar being the
complete misses) with the mean attack size per bucket — plus the Section
VI tables of the largest attacks that escaped detection entirely.

:func:`greedy_probe_placement` implements the Section VII advice to
"determine new probes that can improve detection accuracy": a classic
greedy max-coverage pass over a training workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.attacks.scenario import AttackOutcome
from repro.detection.detector import DetectionReport, HijackDetector
from repro.detection.probes import ProbeSet

__all__ = ["DetectionStudy", "greedy_probe_placement"]


@dataclass(frozen=True)
class UndetectedAttack:
    """A row of the paper's "top undetected attacks" tables."""

    attacker_asn: int
    target_asn: int
    pollution_count: int


@dataclass
class DetectionStudy:
    """Aggregated observations of one detector over many attacks."""

    detector: HijackDetector
    reports: list[DetectionReport] = field(default_factory=list)

    @classmethod
    def run(
        cls, detector: HijackDetector, outcomes: Iterable[AttackOutcome]
    ) -> "DetectionStudy":
        study = cls(detector=detector)
        for outcome in outcomes:
            study.reports.append(detector.observe(outcome))
        return study

    # -- Fig. 7 data -----------------------------------------------------------

    def missed(self) -> list[DetectionReport]:
        """Attacks that escaped completely (the "0" bar)."""
        return [report for report in self.reports if not report.detected]

    def miss_rate(self) -> float:
        if not self.reports:
            return 0.0
        return len(self.missed()) / len(self.reports)

    def histogram(self) -> dict[int, int]:
        """#attacks keyed by number of probes triggered (0 = undetected)."""
        counts: dict[int, int] = {}
        for report in self.reports:
            bucket = report.probe_count if report.detected else 0
            counts[bucket] = counts.get(bucket, 0) + 1
        return dict(sorted(counts.items()))

    def mean_size_by_probe_count(self) -> dict[int, float]:
        """Fig. 7's line series: mean attack size per probe-count bucket.

        The paper notes its slope "confirms intuition; the larger the
        attack extent, the more collectors triggered".
        """
        sums: dict[int, int] = {}
        counts: dict[int, int] = {}
        for report in self.reports:
            bucket = report.probe_count if report.detected else 0
            sums[bucket] = sums.get(bucket, 0) + report.pollution_count
            counts[bucket] = counts.get(bucket, 0) + 1
        return {
            bucket: sums[bucket] / counts[bucket] for bucket in sorted(sums)
        }

    # -- Section VI tables --------------------------------------------------------

    def undetected_summary(self) -> dict[str, float]:
        missed = self.missed()
        sizes = [report.pollution_count for report in missed]
        return {
            "missed": len(missed),
            "miss_rate": self.miss_rate(),
            "mean_pollution": (sum(sizes) / len(sizes)) if sizes else 0.0,
            "max_pollution": max(sizes, default=0),
        }

    def top_undetected(self, count: int = 5) -> list[UndetectedAttack]:
        missed = sorted(
            self.missed(), key=lambda report: -report.pollution_count
        )[:count]
        return [
            UndetectedAttack(
                attacker_asn=report.outcome.scenario.attacker_asn,
                target_asn=report.outcome.scenario.target_asn,
                pollution_count=report.pollution_count,
            )
            for report in missed
        ]


def greedy_probe_placement(
    outcomes: Sequence[AttackOutcome],
    candidates: Iterable[int],
    *,
    count: int,
    seed_probes: Iterable[int] = (),
) -> ProbeSet:
    """Pick *count* probes greedily maximizing attacks seen on a workload.

    Each step adds the candidate AS that covers the most still-unseen
    attacks (an attack is covered when the candidate was polluted by it).
    Starting ``seed_probes`` model an existing deployment to extend.
    """
    chosen: set[int] = set(seed_probes)
    uncovered = {
        index
        for index, outcome in enumerate(outcomes)
        if not (outcome.polluted_asns & chosen)
    }
    pool = sorted(set(candidates) - chosen)
    coverage = {
        asn: {
            index
            for index in uncovered
            if asn in outcomes[index].polluted_asns
        }
        for asn in pool
    }
    while len(chosen) < count + len(set(seed_probes)) and pool:
        best = max(pool, key=lambda asn: (len(coverage[asn] & uncovered), -asn))
        gained = coverage[best] & uncovered
        if not gained:
            break
        chosen.add(best)
        uncovered -= gained
        pool.remove(best)
    return ProbeSet(f"greedy-{len(chosen)}", frozenset(chosen))
