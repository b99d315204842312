"""Incremental-defense analysis (Section V, Figs. 5–6 and the tables).

Evaluates a ladder of deployment strategies against one target and
quantifies the paper's headline finding: "there is a non-linear threshold
in which small security improvements shift into large security gains when
high-degree ASes are added incrementally into the mix" — random deployment
barely moves the baseline, tier-1-only helps but not enough, and the
top-degree core flips the curve's concavity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.attacks.lab import HijackLab
from repro.core.vulnerability import VulnerabilityProfile
from repro.defense.deployment import Defense
from repro.defense.strategies import DeploymentStrategy
from repro.registry.roa import OriginAuthority
from repro.topology.classify import effective_depth

__all__ = [
    "DeploymentComparison",
    "compare_strategies",
    "top_potent_attacks",
]


@dataclass(frozen=True)
class StrategyEvaluation:
    """One strategy's vulnerability profile for the studied target."""

    strategy: DeploymentStrategy
    profile: VulnerabilityProfile

    @property
    def mean_successful_pollution(self) -> float:
        return self.profile.summary.mean_successful


@dataclass(frozen=True)
class DeploymentComparison:
    """A Fig. 5/6-style comparison across a strategy ladder."""

    target_asn: int
    evaluations: tuple[StrategyEvaluation, ...]

    @property
    def baseline(self) -> StrategyEvaluation:
        return self.evaluations[0]

    def improvement_factors(self) -> dict[str, float]:
        """Baseline mean pollution divided by each strategy's."""
        base = max(self.baseline.mean_successful_pollution, 1e-9)
        return {
            evaluation.strategy.name: base
            / max(evaluation.mean_successful_pollution, 1e-9)
            for evaluation in self.evaluations
        }

    def crossover(self, *, factor: float = 5.0) -> StrategyEvaluation | None:
        """The first strategy achieving ≥ *factor*× improvement — the
        paper's non-linear threshold where "small security improvements
        shift into large security gains"."""
        base = self.baseline.mean_successful_pollution
        for evaluation in self.evaluations[1:]:
            mean = evaluation.mean_successful_pollution
            if mean <= 0 or base / max(mean, 1e-9) >= factor:
                return evaluation
        return None

    def is_monotone_improving(self, *, tolerance: float = 0.05) -> bool:
        """Do larger deployments keep reducing mean pollution? (Random
        strategies are exempt — the paper shows they can be useless.)"""
        ordered = [
            evaluation
            for evaluation in self.evaluations
            if not evaluation.strategy.name.startswith("random")
        ]
        for before, after in zip(ordered, ordered[1:]):
            slack = tolerance * max(before.mean_successful_pollution, 1.0)
            if after.mean_successful_pollution > before.mean_successful_pollution + slack:
                return False
        return True


def compare_strategies(
    lab: HijackLab,
    target_asn: int,
    strategies: Sequence[DeploymentStrategy],
    authority: OriginAuthority,
    *,
    transit_only: bool = True,
    sample: int | None = None,
    seed: int | None = None,
) -> DeploymentComparison:
    """Sweep the target once per strategy (Fig. 5/6 workload).

    ``transit_only=True`` mirrors the paper, which runs Section V under
    the optimistic stub-filtered scenario. Every rung shares the lab's
    convergence cache, so the target's baseline converges once for the
    whole ladder.

    A lab built with ``batch_origins > 1`` takes the warm-started path
    instead (:meth:`HijackLab.sweep_deployments`): attacker states are
    copied from the baseline once and every rung is applied and rewound
    through the ``converge_delta`` undo journal, batch-fused across
    attackers — item-identical outcomes per rung, a fraction of the
    wall-clock (see ``docs/performance.md``).
    """
    if lab.batch_origins > 1:
        per_rung = lab.sweep_deployments(
            target_asn, strategies, authority,
            transit_only=transit_only, sample=sample, seed=seed,
        )
        return DeploymentComparison(
            target_asn=target_asn,
            evaluations=tuple(
                StrategyEvaluation(
                    strategy=strategy,
                    profile=VulnerabilityProfile.from_outcomes(
                        target_asn, outcomes.values(), label=strategy.name
                    ),
                )
                for strategy, outcomes in zip(strategies, per_rung)
            ),
        )
    evaluations: list[StrategyEvaluation] = []
    for strategy in strategies:
        defended = lab.with_defense(Defense(strategy=strategy, authority=authority))
        outcomes = defended.sweep_target(
            target_asn, transit_only=transit_only, sample=sample, seed=seed
        )
        profile = VulnerabilityProfile.from_outcomes(
            target_asn, outcomes.values(), label=strategy.name
        )
        evaluations.append(StrategyEvaluation(strategy=strategy, profile=profile))
    return DeploymentComparison(
        target_asn=target_asn, evaluations=tuple(evaluations)
    )


@dataclass(frozen=True)
class PotentAttack:
    """A row of the Section V "top still-potent attacks" tables:
    attacker ASN, pollution achieved, attacker degree and depth."""

    attacker_asn: int
    pollution_count: int
    degree: int
    depth: int


def top_potent_attacks(
    lab: HijackLab,
    target_asn: int,
    strategy: DeploymentStrategy,
    authority: OriginAuthority,
    *,
    count: int = 5,
    transit_only: bool = True,
    sample: int | None = None,
    seed: int | None = None,
) -> list[PotentAttack]:
    """The attacks that still get through a deployment — "an attacker armed
    with the same tools… can plot the viability and value of a specific
    attack" (Section V)."""
    defended = lab.with_defense(Defense(strategy=strategy, authority=authority))
    outcomes = defended.sweep_target(
        target_asn, transit_only=transit_only, sample=sample, seed=seed
    )
    depth = effective_depth(lab.graph)
    ranked = sorted(
        outcomes.values(), key=lambda outcome: -outcome.pollution_count
    )[:count]
    return [
        PotentAttack(
            attacker_asn=outcome.scenario.attacker_asn,
            pollution_count=outcome.pollution_count,
            degree=lab.graph.degree(outcome.scenario.attacker_asn),
            depth=depth.get(outcome.scenario.attacker_asn, -1),
        )
        for outcome in ranked
    ]
