"""Unit tests for the policy rules (Section III of the paper)."""

import dataclasses

import pytest

from repro.bgp.engine import RoutingEngine
from repro.bgp.policy import PolicyConfig, prefers
from repro.oracle.reference import ReferenceRoute, ReferenceSimulator
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship, RouteClass
from repro.topology.view import RoutingView


class TestPrefers:
    def test_customer_beats_peer_regardless_of_length(self):
        assert prefers(False, RouteClass.CUSTOMER, 9, RouteClass.PEER, 1)

    def test_peer_beats_provider(self):
        assert prefers(False, RouteClass.PEER, 5, RouteClass.PROVIDER, 2)

    def test_shorter_wins_within_class(self):
        assert prefers(False, RouteClass.PEER, 2, RouteClass.PEER, 3)
        assert not prefers(False, RouteClass.PEER, 3, RouteClass.PEER, 2)

    def test_exact_tie_keeps_incumbent(self):
        assert not prefers(False, RouteClass.PEER, 2, RouteClass.PEER, 2)

    def test_nothing_beats_origin(self):
        assert not prefers(False, RouteClass.CUSTOMER, 1, RouteClass.ORIGIN, 0)

    def test_tier1_orders_by_length_first(self):
        # The Section VI blind-spot rule: a shorter peer route beats a
        # longer customer route at a tier-1.
        assert prefers(True, RouteClass.PEER, 2, RouteClass.CUSTOMER, 3)
        assert not prefers(True, RouteClass.CUSTOMER, 3, RouteClass.PEER, 2)

    def test_tier1_length_tie_keeps_incumbent_even_for_better_class(self):
        # This is exactly why AS6450's customer routes could not displace
        # the tier-1s' equal-length peer routes to AS7314 in the paper.
        assert not prefers(True, RouteClass.CUSTOMER, 2, RouteClass.PEER, 2)

    def test_tier1_exception_can_be_disabled(self):
        assert not prefers(
            True, RouteClass.PEER, 2, RouteClass.CUSTOMER, 3,
            tier1_shortest_path=False,
        )
        assert prefers(
            True, RouteClass.CUSTOMER, 9, RouteClass.PEER, 2,
            tier1_shortest_path=False,
        )


# The full Gao–Rexford preference table, pinned case by case: LOCAL_PREF
# class first (customer > peer > provider), then path length, then the
# incumbent keeps on an exact tie. Each row is (new_class, new_length,
# old_class, old_length, beats_incumbent).
GAO_REXFORD_TABLE = [
    # better class wins regardless of length
    (RouteClass.CUSTOMER, 9, RouteClass.PEER, 1, True),
    (RouteClass.CUSTOMER, 9, RouteClass.PROVIDER, 1, True),
    (RouteClass.PEER, 9, RouteClass.PROVIDER, 1, True),
    # worse class loses regardless of length
    (RouteClass.PEER, 1, RouteClass.CUSTOMER, 9, False),
    (RouteClass.PROVIDER, 1, RouteClass.CUSTOMER, 9, False),
    (RouteClass.PROVIDER, 1, RouteClass.PEER, 9, False),
    # same class: strictly shorter path wins
    (RouteClass.CUSTOMER, 2, RouteClass.CUSTOMER, 3, True),
    (RouteClass.PEER, 2, RouteClass.PEER, 3, True),
    (RouteClass.PROVIDER, 2, RouteClass.PROVIDER, 3, True),
    (RouteClass.CUSTOMER, 3, RouteClass.CUSTOMER, 2, False),
    (RouteClass.PEER, 3, RouteClass.PEER, 2, False),
    (RouteClass.PROVIDER, 3, RouteClass.PROVIDER, 2, False),
    # exact tie keeps the incumbent, in every class
    (RouteClass.CUSTOMER, 2, RouteClass.CUSTOMER, 2, False),
    (RouteClass.PEER, 2, RouteClass.PEER, 2, False),
    (RouteClass.PROVIDER, 2, RouteClass.PROVIDER, 2, False),
    # nothing displaces the origin's own route
    (RouteClass.CUSTOMER, 1, RouteClass.ORIGIN, 0, False),
    (RouteClass.PEER, 1, RouteClass.ORIGIN, 0, False),
]

# Tier-1 rows: length first (class ignored), ties keep the incumbent.
TIER1_TABLE = [
    (RouteClass.PEER, 2, RouteClass.CUSTOMER, 3, True),
    (RouteClass.PROVIDER, 1, RouteClass.CUSTOMER, 2, True),
    (RouteClass.CUSTOMER, 3, RouteClass.PEER, 2, False),
    (RouteClass.CUSTOMER, 2, RouteClass.PEER, 2, False),
    (RouteClass.PEER, 2, RouteClass.PEER, 2, False),
]


class TestPreferenceTable:
    @pytest.mark.parametrize(
        "new_class,new_length,old_class,old_length,expected", GAO_REXFORD_TABLE
    )
    def test_gao_rexford_order(
        self, new_class, new_length, old_class, old_length, expected
    ):
        assert (
            prefers(False, new_class, new_length, old_class, old_length) is expected
        )

    @pytest.mark.parametrize(
        "new_class,new_length,old_class,old_length,expected", TIER1_TABLE
    )
    def test_tier1_order(self, new_class, new_length, old_class, old_length, expected):
        assert (
            prefers(True, new_class, new_length, old_class, old_length) is expected
        )

    @pytest.mark.parametrize("backend", ["reference", "array"])
    def test_equal_routes_resolve_to_lowest_asn_neighbor(self, backend):
        """The last tie-break, end to end: when two candidates arrive with
        the same class and length, the winner is the first in adjacency
        order — and adjacency is sorted, so the lowest-ASN neighbor wins.
        Pinned on both backends (the array kernel's within-bucket
        first-occurrence selection must reproduce it exactly).

        AS4 buys transit from AS2 and AS3, both customers of the origin
        AS1 — two PROVIDER routes of length 2 reach AS4 in one bucket.
        """
        graph = ASGraph()
        for asn in (1, 2, 3, 4):
            graph.add_as(asn, tier1=(asn == 1))
        graph.add_relationship(1, 2, Relationship.CUSTOMER)
        graph.add_relationship(1, 3, Relationship.CUSTOMER)
        graph.add_relationship(2, 4, Relationship.CUSTOMER)
        graph.add_relationship(3, 4, Relationship.CUSTOMER)
        view = RoutingView.from_graph(graph)
        state = RoutingEngine(view, backend=backend).converge(view.node_of(1))
        node4 = view.node_of(4)
        assert state.length[node4] == 2
        assert state.parent[node4] == view.node_of(2)  # AS2 < AS3


class TestExportRule:
    """Valley-free export at AS10 of the mini topology (customers 30 and
    80, peer 20, provider 1), as the generation-stepped flood applies it."""

    def targets(self, mini_view, route_class, learned_from=None):
        node = mini_view.node_of
        path = () if learned_from is None else (node(learned_from), node(50))
        route = ReferenceRoute(origin=node(50), path=path, route_class=route_class)
        exported = ReferenceSimulator(mini_view)._export_targets(node(10), route)
        return {mini_view.asn_of(target) for target in exported}

    def test_origin_and_customer_routes_export_widely(self, mini_view):
        assert self.targets(mini_view, RouteClass.ORIGIN) == {1, 20, 30, 80}
        # Never back to the neighbor the route was learned from.
        assert self.targets(mini_view, RouteClass.CUSTOMER, 30) == {1, 20, 80}

    def test_peer_and_provider_routes_export_to_customers_only(self, mini_view):
        assert self.targets(mini_view, RouteClass.PEER, 20) == {30, 80}
        assert self.targets(mini_view, RouteClass.PROVIDER, 1) == {30, 80}


class TestPolicyConfig:
    def test_defaults_match_paper(self):
        config = PolicyConfig()
        assert config.tier1_shortest_path
        # The one switch: Section IV's stub filter is a Defense field.
        assert [field.name for field in dataclasses.fields(config)] == [
            "tier1_shortest_path"
        ]
