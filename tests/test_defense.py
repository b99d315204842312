"""Unit tests for deployment strategies and the Defense bundle."""

import pytest

from repro.defense.deployment import Defense, FilterRule
from repro.defense.strategies import (
    custom_deployment,
    degree_threshold_deployment,
    no_deployment,
    paper_ladder,
    random_deployment,
    tier1_deployment,
    top_degree_deployment,
)
from repro.prefixes.prefix import Prefix
from repro.registry.roa import RoaTable, RouteOriginAuthorization
from repro.topology.classify import transit_asns


class TestStrategies:
    def test_no_deployment_empty(self):
        assert len(no_deployment()) == 0

    def test_random_deployment_from_transit_pool(self, medium_graph):
        strategy = random_deployment(medium_graph, 10, seed=1)
        assert len(strategy) == 10
        assert strategy.deployers <= transit_asns(medium_graph)

    def test_random_deployment_deterministic(self, medium_graph):
        a = random_deployment(medium_graph, 10, seed=1)
        b = random_deployment(medium_graph, 10, seed=1)
        c = random_deployment(medium_graph, 10, seed=2)
        assert a.deployers == b.deployers
        assert a.deployers != c.deployers

    def test_random_deployment_pool_exhausted(self, medium_graph):
        with pytest.raises(ValueError):
            random_deployment(medium_graph, 10 ** 6)

    def test_tier1_deployment(self, mini_graph):
        strategy = tier1_deployment(mini_graph)
        assert strategy.deployers == frozenset({1, 2})
        assert 1 in strategy

    def test_top_degree_deployment(self, medium_graph):
        strategy = top_degree_deployment(medium_graph, 20)
        assert len(strategy) == 20
        cutoff = min(medium_graph.degree(asn) for asn in strategy.deployers)
        outside = max(
            medium_graph.degree(asn)
            for asn in medium_graph.asns()
            if asn not in strategy.deployers
        )
        assert cutoff >= outside

    def test_degree_threshold_deployment(self, medium_graph):
        strategy = degree_threshold_deployment(medium_graph, 20)
        assert all(medium_graph.degree(asn) >= 20 for asn in strategy.deployers)

    def test_custom_deployment(self):
        strategy = custom_deployment("mine", [5, 6])
        assert strategy.name == "mine" and strategy.deployers == frozenset({5, 6})

    def test_paper_ladder_shape(self, medium_graph):
        ladder = paper_ladder(medium_graph)
        names = [strategy.name for strategy in ladder]
        assert names[0] == "baseline"
        assert names[1].startswith("random-") and names[2].startswith("random-")
        assert names[3].startswith("tier1-")
        assert names[4:] == ["core-62", "core-124", "core-166", "core-299"]
        # Larger tiers contain the smaller ones.
        assert ladder[4].deployers <= ladder[5].deployers <= ladder[6].deployers


class TestFilterRule:
    def test_rejects_foreign_origin_inside_block(self):
        rule = FilterRule(1, Prefix.parse("10.0.0.0/8"), frozenset({65001}))
        assert rule.rejects(Prefix.parse("10.1.0.0/16"), 64999)
        assert not rule.rejects(Prefix.parse("10.1.0.0/16"), 65001)
        assert not rule.rejects(Prefix.parse("11.0.0.0/8"), 64999)


class TestDefense:
    @pytest.fixture
    def authority(self) -> RoaTable:
        return RoaTable([RouteOriginAuthorization(Prefix.parse("10.0.0.0/16"), 65001)])

    def test_no_authority_blocks_nothing(self):
        defense = Defense(strategy=custom_deployment("d", [1, 2]))
        assert defense.blocking_asns(Prefix.parse("10.0.0.0/16"), 64999) == frozenset()

    def test_invalid_announcement_blocked_at_deployers(self, authority):
        defense = Defense(strategy=custom_deployment("d", [1, 2]), authority=authority)
        blockers = defense.blocking_asns(Prefix.parse("10.0.0.0/16"), 64999)
        assert blockers == frozenset({1, 2})

    def test_valid_announcement_not_blocked(self, authority):
        defense = Defense(strategy=custom_deployment("d", [1, 2]), authority=authority)
        assert defense.blocking_asns(Prefix.parse("10.0.0.0/16"), 65001) == frozenset()

    def test_not_found_announcement_not_blocked(self, authority):
        defense = Defense(strategy=custom_deployment("d", [1, 2]), authority=authority)
        assert defense.blocking_asns(Prefix.parse("99.0.0.0/16"), 64999) == frozenset()

    def test_manual_filters_block_independently(self, authority):
        rule = FilterRule(7, Prefix.parse("10.0.0.0/16"), frozenset({65001}))
        defense = Defense(manual_filters=(rule,))
        assert defense.blocking_asns(Prefix.parse("10.0.0.0/16"), 64999) == frozenset({7})

    def test_with_filters_returns_extended_copy(self, authority):
        base = Defense(authority=authority)
        rule = FilterRule(7, Prefix.parse("10.0.0.0/16"), frozenset({65001}))
        extended = base.with_filters(rule)
        assert extended.manual_filters == (rule,)
        assert base.manual_filters == ()

    def test_blocking_nodes_maps_to_view(self, mini_graph, mini_view, authority):
        defense = Defense(strategy=custom_deployment("d", [10, 999]), authority=authority)
        nodes = defense.blocking_nodes(mini_view, Prefix.parse("10.0.0.0/16"), 64999)
        assert nodes == frozenset({mini_view.node_of(10)})
