"""Unit tests for the AS graph and relationship types."""

import pytest

from repro.topology.asgraph import ASGraph, TopologyError
from repro.topology.relationships import Relationship, RouteClass


class TestRelationshipEnum:
    def test_route_class_preference_order(self):
        assert RouteClass.ORIGIN < RouteClass.CUSTOMER < RouteClass.PEER < RouteClass.PROVIDER


class TestNodes:
    def test_add_and_contains(self):
        graph = ASGraph()
        graph.add_as(7, region="eu")
        assert 7 in graph and 8 not in graph
        assert graph.region_of(7) == "eu"

    def test_add_as_idempotent_updates_metadata(self):
        graph = ASGraph()
        graph.add_as(7)
        graph.add_as(7, region="eu", tier1=True)
        assert graph.region_of(7) == "eu"
        assert 7 in graph.marked_tier1()

    def test_asns_sorted(self):
        graph = ASGraph()
        for asn in (5, 1, 9):
            graph.add_as(asn)
        assert graph.asns() == [1, 5, 9]

    def test_regions_mapping(self):
        graph = ASGraph()
        graph.add_as(1, region="a")
        graph.add_as(2, region="a")
        graph.add_as(3, region="b")
        graph.add_as(4)
        assert graph.regions() == {"a": [1, 2], "b": [3]}

    def test_unknown_as_raises(self):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.providers(1)


class TestEdges:
    @pytest.fixture
    def pair(self) -> ASGraph:
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(2)
        return graph

    def test_customer_link_both_views(self, pair):
        pair.add_relationship(1, 2, Relationship.CUSTOMER)
        assert 2 in pair.customers(1)
        assert 1 in pair.providers(2)
        assert pair.relationship(1, 2) is Relationship.CUSTOMER
        assert pair.relationship(2, 1) is Relationship.PROVIDER

    def test_provider_direction_inverts(self, pair):
        pair.add_relationship(1, 2, Relationship.PROVIDER)
        assert 1 in pair.customers(2)

    def test_peer_symmetric(self, pair):
        pair.add_relationship(1, 2, Relationship.PEER)
        assert 2 in pair.peers(1) and 1 in pair.peers(2)

    def test_conflicting_relationship_rejected(self, pair):
        pair.add_relationship(1, 2, Relationship.CUSTOMER)
        with pytest.raises(TopologyError):
            pair.add_relationship(1, 2, Relationship.PEER)

    def test_duplicate_same_relationship_is_noop(self, pair):
        pair.add_relationship(1, 2, Relationship.PEER)
        pair.add_relationship(2, 1, Relationship.PEER)
        assert pair.degree(1) == 1

    def test_self_link_rejected(self, pair):
        with pytest.raises(TopologyError):
            pair.add_relationship(1, 1, Relationship.PEER)

    def test_remove_relationship(self, pair):
        pair.add_relationship(1, 2, Relationship.CUSTOMER)
        pair.remove_relationship(1, 2)
        assert pair.relationship(1, 2) is None
        assert pair.degree(1) == 0

    def test_remove_missing_raises(self, pair):
        with pytest.raises(TopologyError):
            pair.remove_relationship(1, 2)

    def test_edge_count_and_edges(self, mini_graph):
        edges = list(mini_graph.edges())
        assert len(edges) == mini_graph.edge_count()
        # Each undirected link appears exactly once.
        seen = {frozenset((a, b)) for a, b, _rel in edges}
        assert len(seen) == len(edges)

    def test_degree(self, mini_graph):
        assert mini_graph.degree(10) == 4  # provider 1, peer 20, customers 30, 80


class TestMutation:
    def test_rehome(self, mini_graph):
        mini_graph.rehome(50, 30, 10)
        assert 10 in mini_graph.providers(50)
        assert 30 not in mini_graph.providers(50)

    def test_rehome_requires_existing_provider(self, mini_graph):
        with pytest.raises(TopologyError):
            mini_graph.rehome(50, 40, 10)

    def test_copy_is_independent(self, mini_graph):
        clone = mini_graph.copy()
        clone.remove_relationship(30, 50)
        assert mini_graph.relationship(30, 50) is not None

    def test_validate_passes_on_consistent_graph(self, mini_graph):
        mini_graph.validate()
