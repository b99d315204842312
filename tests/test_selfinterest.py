"""Unit tests for the Section VII self-interest playbook."""

import pytest

from repro.attacks.lab import HijackLab
from repro.core.selfinterest import (
    SelfInterestPlanner,
    apply_rehoming,
    assess_region,
    plan_rehoming,
    regional_attack_study,
)
from repro.topology.classify import effective_depth


@pytest.fixture(scope="module")
def region(medium_graph) -> str:
    regions = medium_graph.regions()
    return min(regions, key=lambda name: len(regions[name]))


@pytest.fixture(scope="module")
def assessment(medium_graph, region):
    return assess_region(medium_graph, region)


class TestAssessment:
    def test_members_match_region(self, medium_graph, region, assessment):
        assert assessment.members == frozenset(medium_graph.regions()[region])
        assert assessment.member_count == len(assessment.members)

    def test_vulnerable_members_sorted_deepest_first(self, assessment):
        depths = [assessment.depth_of[asn] for asn in assessment.vulnerable_members]
        assert depths == sorted(depths, reverse=True)
        assert all(depth >= 3 for depth in depths)

    def test_hub_is_regional_transit(self, medium_graph, assessment):
        assert assessment.hub_asn in assessment.members
        assert medium_graph.customers(assessment.hub_asn)

    def test_deepest(self, assessment):
        deepest = assessment.deepest()
        assert assessment.depth_of[deepest] == max(assessment.depth_of.values())

    def test_unknown_region_rejected(self, medium_graph):
        with pytest.raises(ValueError):
            assess_region(medium_graph, "NOPE")


class TestRehoming:
    def test_plan_climbs_levels(self, medium_graph, assessment):
        target = assessment.deepest()
        plan = plan_rehoming(medium_graph, target, levels=2)
        assert plan is not None
        assert plan.asn == target
        assert plan.expected_depth < plan.old_depth

    def test_apply_reduces_depth(self, medium_graph, assessment):
        target = assessment.deepest()
        plan = plan_rehoming(medium_graph, target, levels=2)
        rehomed = apply_rehoming(medium_graph, plan)
        new_depth = effective_depth(rehomed)[target]
        assert new_depth < plan.old_depth
        assert new_depth == plan.expected_depth
        # The original graph is untouched.
        assert effective_depth(medium_graph)[target] == plan.old_depth

    def test_tier1_cannot_be_rehomed(self, medium_graph):
        from repro.topology.classify import find_tier1

        tier1 = next(iter(find_tier1(medium_graph)))
        assert plan_rehoming(medium_graph, tier1) is None


class TestRegionalStudy:
    def test_fractions_bounded(self, medium_lab, region, assessment):
        target = assessment.deepest()
        impact = regional_attack_study(
            medium_lab, target, region, external_sample=40
        )
        assert 0.0 <= impact.regional_fraction <= 1.0
        assert 0.0 <= impact.external_fraction <= 1.0
        assert impact.region_size == assessment.member_count

    def test_target_must_be_regional(self, medium_lab, region):
        outside = next(
            asn
            for asn in medium_lab.graph.asns()
            if medium_lab.graph.region_of(asn) != region
        )
        with pytest.raises(ValueError):
            regional_attack_study(medium_lab, outside, region)


class TestPlanner:
    @pytest.fixture(scope="class")
    def action_plan(self, medium_graph, region):
        lab = HijackLab(medium_graph, seed=7)
        return SelfInterestPlanner(lab).plan(
            region, external_sample=30, probe_budget=3
        )

    def test_rehoming_improves_or_is_skipped(self, action_plan):
        if action_plan.rehoming is not None:
            assert (
                action_plan.rehomed_impact.regional_fraction
                <= action_plan.baseline.regional_fraction
            )

    def test_filter_improves_regional_outcome(self, action_plan):
        assert (
            action_plan.filtered_impact.regional_fraction
            <= action_plan.baseline.regional_fraction
        )

    def test_publish_step_covers_region(self, action_plan):
        assert set(action_plan.publish_asns) == set(action_plan.assessment.members)

    def test_probe_recommendation_within_budget(self, action_plan):
        assert len(action_plan.probe_recommendation) <= 3
        assert action_plan.detection_miss_rate <= 0.5

    def test_report_mentions_every_step(self, action_plan):
        report = action_plan.report()
        for marker in ("1. ANALYZE", "2. REDUCE", "3. PUBLISH", "4. FILTER", "5. DETECT"):
            assert marker in report
