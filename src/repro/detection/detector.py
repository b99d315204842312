"""The hijack detector and its per-attack observations.

A detector peers with probe ASes and compares the routes they select
against known-good origin data. In the simulation an attack is *seen* by a
probe when the probe AS accepted the bogus route ("Any particular attack
may be seen… by one, multiple, or possibly none of the BGP data sources",
Section VI); it is *detected* when at least one probe saw it **and** the
detector can classify the announcement as bogus — which requires the
target to have published its route origins (or the detector to fall back
on trusted historical data).

Every verdict comes from :func:`~repro.detection.taxonomy.classify_observations`,
batch and live alike; this module only decides what is observed and
against which published data it is judged.

Classification is path-aware (:mod:`repro.detection.taxonomy`): beyond
ROAs, a detector may hold published neighbor sets (``neighbors``) and
full topology knowledge (``relationships``), which is what lets it catch
the forged-path and route-leak cells of the attack grid that origin
validation provably cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.attacks.scenario import AttackOutcome
from repro.detection.moas import MoasReport, MoasVerdict
from repro.detection.probes import ProbeSet
from repro.detection.taxonomy import PathObservation, classify_observations
from repro.prefixes.prefix import Prefix
from repro.registry.neighbors import NeighborRegistry
from repro.registry.roa import OriginAuthority, RoaTable, RouteOriginAuthorization
from repro.topology.asgraph import ASGraph

__all__ = ["DetectionReport", "HijackDetector"]


@dataclass(frozen=True)
class DetectionReport:
    """What one detector configuration saw of one attack."""

    outcome: AttackOutcome
    triggered_probes: frozenset[int]
    verdict: MoasVerdict | None = None

    @property
    def classified_bogus(self) -> bool:
        """Did the detector's published data recognize the claim as bogus?"""
        return self.verdict is not None

    @property
    def seen(self) -> bool:
        """Did any probe receive (and accept) the bogus route?"""
        return bool(self.triggered_probes)

    @property
    def detected(self) -> bool:
        """Seen and recognizable as a hijack."""
        return self.seen and self.classified_bogus

    @property
    def probe_count(self) -> int:
        return len(self.triggered_probes)

    @property
    def pollution_count(self) -> int:
        return self.outcome.pollution_count


@dataclass(frozen=True)
class HijackDetector:
    """A probe set plus the published data used to classify announcements.

    Without any published data the detector is Fig. 7's historical-data
    system, which always recognizes a mismatching origin: it judges
    against the one ROA the target would publish — the attacked prefix,
    authorized for its target and nobody else (the optimistic assumption
    written as data). With an ``authority``, announcements for
    unpublished space cannot be classified and slip through even if
    probes saw them — quantifying the paper's "publish route origins"
    advice. ``neighbors`` adds ARTEMIS-style first-hop verification and
    ``relationships`` full topology knowledge (link verification plus
    leak detection); each rung of that ladder catches strictly more of
    the attack grid.

    Of that data only a :class:`RoaTable` authority changes while a
    detector is in use (a stream's ``RoaPublish``/``RoaRevoke``), so
    :attr:`published_version` is its ``version``; the neighbor registry
    and the relationship graph are fixed for the detector's lifetime.
    """

    probes: ProbeSet
    authority: OriginAuthority | None = None
    neighbors: NeighborRegistry | None = None
    relationships: ASGraph | None = None

    @property
    def published_version(self) -> int | None:
        """Moves whenever :meth:`observe_conflict`'s verdicts may change
        for the same observations; ``None`` for an authority that keeps
        no version, whose verdicts must never be reused."""
        authority = self.authority
        if authority is None:
            return 0
        return authority.version if isinstance(authority, RoaTable) else None

    def observe(self, outcome: AttackOutcome) -> DetectionReport:
        triggered = self.probes.triggered_by(outcome.polluted_asns)
        tail = outcome.claimed_path
        if tail is None:  # the attack never launched: nothing to judge
            return DetectionReport(outcome=outcome, triggered_probes=triggered)
        scenario = outcome.scenario
        authority = self.authority
        if authority is None and self.neighbors is None and self.relationships is None:
            authority = RoaTable(
                [RouteOriginAuthorization(scenario.prefix, scenario.target_asn)]
            )
        report = classify_observations(
            scenario.prefix,
            [PathObservation(tail=tail, witnesses=tuple(sorted(triggered)))],
            authority=authority,
            neighbors=self.neighbors,
            relationships=self.relationships,
        )
        return DetectionReport(
            outcome=outcome,
            triggered_probes=triggered,
            verdict=report.verdict if report is not None and report.alarm else None,
        )

    def observe_conflict(
        self, prefix: Prefix, observations: Sequence[PathObservation]
    ) -> MoasReport | None:
        """Judge what is currently observed for *prefix* — the
        event-by-event entry point.

        :meth:`observe` is batch-shaped: it needs a finished
        :class:`~repro.attacks.scenario.AttackOutcome`. A live monitor has
        no outcomes, only what its probes see for a prefix *right now*:
        the distinct claimed paths plus the probes witnessing each. They
        are judged by the same path-aware rule ladder
        (:func:`~repro.detection.taxonomy.classify_observations`) against
        this detector's published data.

        Returns the report (check ``report.alarm``), or ``None`` when
        there is nothing to judge.
        """
        return classify_observations(
            prefix,
            observations,
            authority=self.authority,
            neighbors=self.neighbors,
            relationships=self.relationships,
        )
