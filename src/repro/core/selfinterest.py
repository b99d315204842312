"""The Section VII playbook: pragmatic self-interest actions.

"Rather than sit and wait, responsible organizations can start to take
pro-active actions immediately." The paper proposes five steps — analyze
the relevant AS topology, reduce vulnerability (re-home / multi-home),
publish route origins, incorporate filters, use detection — and validates
them on a ~187-AS regional slice (New Zealand) around the very vulnerable
AS55857: re-homing the target up two levels cut average regional pollution
from 60% to 25% (regional attackers) and 15% to 6% (external attackers);
a single prefix filter at the regional hub cut regional attacks to 40%.

:class:`SelfInterestPlanner` executes those steps against a lab and
*measures* each recommendation's impact rather than merely suggesting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.attacks.lab import HijackLab
from repro.defense.deployment import FilterRule
from repro.detection.analysis import DetectionStudy, greedy_probe_placement
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet
from repro.topology.asgraph import ASGraph
from repro.topology.classify import customer_cone, effective_depth, transit_asns
from repro.util.rng import make_rng

__all__ = [
    "RegionalAssessment",
    "assess_region",
    "RehomingPlan",
    "plan_rehoming",
    "apply_rehoming",
    "RegionalImpact",
    "regional_attack_study",
    "ActionPlan",
    "SelfInterestPlanner",
]


# ---------------------------------------------------------------------------
# Step 1 — analyze the relevant AS topology.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionalAssessment:
    """Depth analysis of one region's ASes (the paper's first step:
    "Start with that region and map the ASes involved. Measure depth to
    assess potential vulnerability")."""

    region: str
    members: frozenset[int]
    depth_of: dict[int, int]
    vulnerable_members: tuple[int, ...]
    hub_asn: int

    @property
    def member_count(self) -> int:
        return len(self.members)

    def deepest(self) -> int:
        """The most vulnerable (deepest) member."""
        if not self.vulnerable_members:
            return max(self.members, key=lambda asn: self.depth_of.get(asn, 0))
        return self.vulnerable_members[0]


def assess_region(graph: ASGraph, region: str) -> RegionalAssessment:
    """Map a region: member depths, the deep (vulnerable: depth 3 or
    more) members, and the regional hub — the transit AS whose customer
    cone covers the most regional ASes (the paper's VOCUS analogue)."""
    members = frozenset(graph.regions().get(region, ()))
    if not members:
        raise ValueError(f"unknown or empty region {region!r}")
    depth = effective_depth(graph)
    vulnerable = tuple(
        sorted(
            (asn for asn in members if depth.get(asn, 0) >= 3),
            key=lambda asn: (-depth.get(asn, 0), asn),
        )
    )
    regional_transit = [asn for asn in transit_asns(graph) if asn in members]
    if not regional_transit:
        regional_transit = sorted(members)

    def regional_cone(asn: int) -> int:
        return len(customer_cone(graph, asn) & members)

    hub = max(regional_transit, key=lambda asn: (regional_cone(asn), -asn))
    return RegionalAssessment(
        region=region,
        members=members,
        depth_of={asn: depth.get(asn, 0) for asn in members},
        vulnerable_members=vulnerable,
        hub_asn=hub,
    )


# ---------------------------------------------------------------------------
# Step 2 — reduce vulnerability by re-homing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RehomingPlan:
    """Replace ``old_provider`` with ``new_provider`` (an ancestor
    ``levels`` hops up the provider chain), reducing the AS's depth."""

    asn: int
    old_provider: int
    new_provider: int
    old_depth: int
    expected_depth: int


def plan_rehoming(
    graph: ASGraph, asn: int, *, levels: int = 2
) -> RehomingPlan | None:
    """The paper's experiment: "re-homed AS55857 up two levels".

    Walks *levels* steps up the shallowest provider chain and re-homes the
    AS to that ancestor. Returns ``None`` when the AS is already as shallow
    as it can get.
    """
    depth = effective_depth(graph)
    providers = sorted(
        graph.providers(asn), key=lambda p: (depth.get(p, 1 << 30), p)
    )
    if not providers:
        return None
    old_provider = providers[0]
    ancestor = old_provider
    climbed = 0
    while climbed < levels:
        above = sorted(
            graph.providers(ancestor), key=lambda p: (depth.get(p, 1 << 30), p)
        )
        if not above:
            break
        ancestor = above[0]
        climbed += 1
    if ancestor == old_provider:
        return None
    return RehomingPlan(
        asn=asn,
        old_provider=old_provider,
        new_provider=ancestor,
        old_depth=depth.get(asn, 0),
        expected_depth=depth.get(ancestor, 0) + 1,
    )


def apply_rehoming(graph: ASGraph, plan: RehomingPlan) -> ASGraph:
    """A copy of the topology with the re-homing applied."""
    modified = graph.copy()
    modified.rehome(plan.asn, plan.old_provider, plan.new_provider)
    return modified


# ---------------------------------------------------------------------------
# Impact measurement (used by steps 2 and 4).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionalImpact:
    """Average regional pollution when one regional target is attacked."""

    target_asn: int
    region: str
    region_size: int
    regional_mean: float
    external_mean: float

    @property
    def regional_fraction(self) -> float:
        return self.regional_mean / self.region_size if self.region_size else 0.0

    @property
    def external_fraction(self) -> float:
        return self.external_mean / self.region_size if self.region_size else 0.0


def regional_attack_study(
    lab: HijackLab,
    target_asn: int,
    region: str,
    *,
    external_sample: int = 200,
    seed: int = 0,
) -> RegionalImpact:
    """The paper's measurement: attack the target from every regional AS
    and from a sample of external ASes; report the average number of
    *regional* ASes compromised."""
    members = frozenset(lab.graph.regions().get(region, ()))
    if target_asn not in members:
        raise ValueError(f"AS{target_asn} is not in region {region!r}")
    target_node = lab.view.node_of(target_asn)
    regional_counts: list[int] = []
    for attacker in sorted(members):
        if attacker == target_asn or lab.view.node_of(attacker) == target_node:
            continue
        outcome = lab.origin_hijack(target_asn, attacker)
        regional_counts.append(outcome.polluted_within(members))
    outside = [asn for asn in lab.graph.asns() if asn not in members]
    rng = make_rng(seed, "regional-external", region, target_asn)
    sampled = sorted(rng.sample(outside, min(external_sample, len(outside))))
    external_counts: list[int] = []
    for attacker in sampled:
        if lab.view.node_of(attacker) == target_node:
            continue
        outcome = lab.origin_hijack(target_asn, attacker)
        external_counts.append(outcome.polluted_within(members))
    return RegionalImpact(
        target_asn=target_asn,
        region=region,
        region_size=len(members),
        regional_mean=sum(regional_counts) / len(regional_counts)
        if regional_counts
        else 0.0,
        external_mean=sum(external_counts) / len(external_counts)
        if external_counts
        else 0.0,
    )


# ---------------------------------------------------------------------------
# The full playbook.
# ---------------------------------------------------------------------------


@dataclass
class ActionPlan:
    """Everything the planner recommends, with measured impact."""

    assessment: RegionalAssessment
    target_asn: int
    baseline: RegionalImpact
    rehoming: RehomingPlan | None
    rehomed_impact: RegionalImpact | None
    publish_asns: tuple[int, ...] = ()
    filter_rule: FilterRule | None = None
    filtered_impact: RegionalImpact | None = None
    probe_recommendation: ProbeSet | None = None
    detection_miss_rate: float | None = None
    notes: list[str] = field(default_factory=list)

    def report(self) -> str:
        """A human-readable summary of the five steps."""
        lines = [
            f"Self-interest action plan for AS{self.target_asn} "
            f"(region {self.assessment.region}, {self.assessment.member_count} ASes)",
            f"1. ANALYZE: target depth "
            f"{self.assessment.depth_of.get(self.target_asn, '?')}, regional hub "
            f"AS{self.assessment.hub_asn}; baseline regional pollution "
            f"{self.baseline.regional_fraction:.0%} (regional attackers) / "
            f"{self.baseline.external_fraction:.0%} (external).",
        ]
        if self.rehoming and self.rehomed_impact:
            lines.append(
                f"2. REDUCE VULNERABILITY: re-home AS{self.rehoming.asn} from "
                f"AS{self.rehoming.old_provider} to AS{self.rehoming.new_provider} "
                f"(depth {self.rehoming.old_depth}→{self.rehoming.expected_depth}): "
                f"regional pollution {self.rehomed_impact.regional_fraction:.0%} / "
                f"external {self.rehomed_impact.external_fraction:.0%}."
            )
        else:
            lines.append("2. REDUCE VULNERABILITY: already optimally homed.")
        lines.append(
            f"3. PUBLISH: secure route origins for {len(self.publish_asns)} "
            "regional ASes (enables accurate filtering and detection)."
        )
        if self.filter_rule and self.filtered_impact:
            lines.append(
                f"4. FILTER: prefix filter at hub AS{self.filter_rule.filtering_asn} "
                f"for {self.filter_rule.prefix}: regional pollution "
                f"{self.filtered_impact.regional_fraction:.0%} / external "
                f"{self.filtered_impact.external_fraction:.0%}."
            )
        if self.probe_recommendation is not None:
            lines.append(
                f"5. DETECT: recommended probes "
                f"{sorted(self.probe_recommendation.asns)} "
                f"(miss rate {self.detection_miss_rate:.0%} on the regional "
                "attack workload)."
            )
        lines.extend(self.notes)
        return "\n".join(lines)


class SelfInterestPlanner:
    """Executes the Section VII playbook for one region/target."""

    def __init__(self, lab: HijackLab) -> None:
        self.lab = lab

    def plan(
        self,
        region: str,
        *,
        target_asn: int | None = None,
        external_sample: int = 200,
        probe_budget: int = 4,
    ) -> ActionPlan:
        """Assess, re-home, publish, filter and audit detection — each step
        evaluated by simulation, as the paper's validation experiments do."""
        assessment = assess_region(self.lab.graph, region)
        target = target_asn if target_asn is not None else assessment.deepest()
        baseline = regional_attack_study(
            self.lab, target, region, external_sample=external_sample
        )

        rehoming = plan_rehoming(self.lab.graph, target)
        rehomed_impact = None
        if rehoming is not None:
            rehomed_lab = HijackLab(
                apply_rehoming(self.lab.graph, rehoming),
                plan=self.lab.plan,
                policy=self.lab.policy,
                defense=self.lab.defense,
                seed=self.lab.seed,
                backend=self.lab.backend,
            )
            rehomed_impact = regional_attack_study(
                rehomed_lab, target, region, external_sample=external_sample
            )

        publish = tuple(sorted(assessment.members))
        prefix = self.lab.target_prefix(target)
        rule = FilterRule(
            filtering_asn=assessment.hub_asn,
            prefix=prefix,
            allowed_origins=frozenset({target}),
        )
        filtered_lab = self.lab.with_defense(self.lab.defense.with_filters(rule))
        filtered_impact = regional_attack_study(
            filtered_lab, target, region, external_sample=external_sample
        )

        # Step 5: audit detection over the regional workload and extend the
        # probe set greedily where there are blind spots.
        workload = [
            self.lab.origin_hijack(target, attacker)
            for attacker in sorted(assessment.members)
            if attacker != target
            and self.lab.view.node_of(attacker) != self.lab.view.node_of(target)
        ]
        candidates: Sequence[int] = sorted(transit_asns(self.lab.graph))
        probes = greedy_probe_placement(workload, candidates, count=probe_budget)
        study = DetectionStudy.run(HijackDetector(probes), workload)

        return ActionPlan(
            assessment=assessment,
            target_asn=target,
            baseline=baseline,
            rehoming=rehoming,
            rehomed_impact=rehomed_impact,
            publish_asns=publish,
            filter_rule=rule,
            filtered_impact=filtered_impact,
            probe_recommendation=probes,
            detection_miss_rate=study.miss_rate(),
        )
