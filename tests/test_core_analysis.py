"""Unit tests for the core analyses: roles, vulnerability, deployment,
detection comparison."""

import pytest

from repro.core.deployment_analysis import compare_strategies, top_potent_attacks
from repro.core.detection_analysis import compare_detectors, paper_probe_sets
from repro.core.roles import resolve_roles
from repro.core.vulnerability import (
    VulnerabilityProfile,
    attacker_aggressiveness,
    correlate_target_metrics,
    profile_target,
)
from repro.defense.strategies import no_deployment, tier1_deployment, top_degree_deployment
from repro.registry.publication import PublicationState
from repro.topology.classify import effective_depth, find_tier1, stub_asns


@pytest.fixture(scope="module")
def roles(medium_graph):
    return resolve_roles(medium_graph)


@pytest.fixture(scope="module")
def authority(medium_lab):
    return PublicationState.full(medium_lab.plan).table()


class TestRoles:
    def test_depth_assignments(self, medium_graph, roles):
        depth = effective_depth(medium_graph)
        assert depth[roles.depth1_single_stub] == 1
        assert depth[roles.depth1_multi_stub] == 1
        assert depth[roles.depth2_stub] == 2
        assert depth[roles.deep_target] == roles.deep_target_depth >= 4

    def test_homing_constraints(self, medium_graph, roles):
        tier1 = find_tier1(medium_graph)
        assert len(medium_graph.providers(roles.depth1_single_stub)) == 1
        assert len(medium_graph.providers(roles.depth1_multi_stub)) >= 2
        assert medium_graph.providers(roles.depth1_single_stub) <= tier1

    def test_targets_are_stubs(self, medium_graph, roles):
        stubs = stub_asns(medium_graph)
        assert roles.depth1_single_stub in stubs
        assert roles.deep_target in stubs

    def test_aggressive_attacker_is_shallow_transit(self, medium_graph, roles):
        depth = effective_depth(medium_graph)
        assert depth[roles.aggressive_attacker] <= 1
        assert medium_graph.customers(roles.aggressive_attacker)

    def test_fig2_targets_mapping(self, roles):
        targets = roles.fig2_targets()
        assert len(targets) == 5
        assert targets["tier-1"] == roles.tier1_target


class TestVulnerabilityProfiles:
    def test_deeper_targets_more_vulnerable(self, medium_lab, roles):
        shallow = profile_target(medium_lab, roles.depth1_multi_stub, sample=120)
        deep = profile_target(medium_lab, roles.deep_target, sample=120)
        assert deep.summary.mean > shallow.summary.mean
        assert deep.severity() > shallow.severity()

    def test_tier1_most_resistant(self, medium_lab, roles):
        tier1 = profile_target(medium_lab, roles.tier1_target, sample=120)
        deep = profile_target(medium_lab, roles.deep_target, sample=120)
        assert tier1.summary.mean < deep.summary.mean

    def test_attackers_polluting_at_least(self, medium_lab, roles):
        profile = profile_target(medium_lab, roles.deep_target, sample=120)
        total = profile.summary.count
        assert profile.attackers_polluting_at_least(0) == total
        assert profile.attackers_polluting_at_least(10 ** 9) == 0

    def test_from_outcomes_label_default(self, medium_lab, roles):
        outcomes = medium_lab.sweep_target(roles.deep_target, sample=10)
        profile = VulnerabilityProfile.from_outcomes(
            roles.deep_target, outcomes.values()
        )
        assert profile.label == f"AS{roles.deep_target}"

    def test_transit_only_scales_down(self, medium_lab, roles):
        worst = profile_target(medium_lab, roles.deep_target, sample=200, seed=1)
        filtered = profile_target(
            medium_lab, roles.deep_target, sample=200, seed=1, transit_only=True
        )
        assert filtered.summary.count <= worst.summary.count


class TestAggressiveness:
    def test_negative_depth_correlation(self, medium_lab, roles):
        # Paper: "attacker aggressiveness has a strong negative correlation
        # with attacker depth."
        depth = effective_depth(medium_lab.graph)
        by_depth = {}
        for asn, d in depth.items():
            by_depth.setdefault(d, asn)
        attackers = sorted(by_depth.values())
        targets = medium_lab.graph.asns()[:: len(medium_lab.graph) // 12][:12]
        records = attacker_aggressiveness(medium_lab, attackers, targets)
        shallow_mean = max(
            r.mean_pollution for r in records if r.depth <= 1
        )
        deep_records = [r for r in records if r.depth >= 3]
        if deep_records:
            assert min(r.mean_pollution for r in deep_records) < shallow_mean


class TestMetricCorrelations:
    def test_depth_correlates_positively(self, medium_lab):
        import random

        rng = random.Random(0)
        targets = rng.sample(sorted(stub_asns(medium_lab.graph)), 24)
        correlations = correlate_target_metrics(
            medium_lab, targets, attackers_sample=60
        )
        assert correlations.depth > 0.3
        assert correlations.samples == 24


class TestDeploymentComparison:
    def test_ladder_reduces_pollution(self, medium_lab, roles, authority):
        strategies = [
            no_deployment(),
            tier1_deployment(medium_lab.graph),
            top_degree_deployment(medium_lab.graph, 60),
        ]
        comparison = compare_strategies(
            medium_lab, roles.deep_target, strategies, authority, sample=100
        )
        means = [e.mean_successful_pollution for e in comparison.evaluations]
        assert means[0] > means[1] > means[2]
        assert comparison.is_monotone_improving()

    def test_crossover_found_for_core_deployment(self, medium_lab, roles, authority):
        strategies = [
            no_deployment(),
            tier1_deployment(medium_lab.graph),
            top_degree_deployment(medium_lab.graph, 60),
        ]
        comparison = compare_strategies(
            medium_lab, roles.deep_target, strategies, authority, sample=100
        )
        crossover = comparison.crossover(factor=5.0)
        assert crossover is not None
        assert crossover.strategy.name == "top-degree-60"

    def test_improvement_factors_baseline_is_one(self, medium_lab, roles, authority):
        comparison = compare_strategies(
            medium_lab, roles.deep_target, [no_deployment()], authority, sample=50
        )
        factors = comparison.improvement_factors()
        assert factors["baseline"] == pytest.approx(1.0)

    def test_top_potent_attacks_rows(self, medium_lab, roles, authority):
        rows = top_potent_attacks(
            medium_lab,
            roles.deep_target,
            top_degree_deployment(medium_lab.graph, 60),
            authority,
            count=5,
            sample=100,
        )
        assert len(rows) <= 5
        sizes = [row.pollution_count for row in rows]
        assert sizes == sorted(sizes, reverse=True)
        for row in rows:
            assert row.degree == medium_lab.graph.degree(row.attacker_asn)


class TestDetectorComparison:
    def test_paper_ordering(self, medium_lab):
        comparison = compare_detectors(
            medium_lab, paper_probe_sets(medium_lab), attack_count=250, seed=1
        )
        rates = comparison.miss_rates()
        tier1_name = next(name for name in rates if name.startswith("tier1"))
        top_name = next(name for name in rates if name.startswith("top-degree"))
        assert rates[tier1_name] > rates[top_name]
        assert comparison.best().detector.probes.name == top_name
        assert comparison.worst().detector.probes.name == tier1_name

    def test_shared_workload_size(self, medium_lab):
        comparison = compare_detectors(medium_lab, attack_count=100, seed=2)
        assert comparison.workload_size == 100
        for study in comparison.studies:
            assert len(study.reports) == 100
