"""Unit tests for reach/overlap of customer cones and convergence statistics.

Section IV names "the reach and overlap of the tier-1 ASes" as a factor in
attacker aggressiveness, and Section VII recommends re-homing "to increase
non-overlapping reach"; both rest on ``customer_cone``.
"""

import pytest

from repro.bgp.convergence import (
    generation_wavefront,
    measure_convergence,
)
from repro.topology.classify import customer_cone, find_tier1
from repro.topology.view import RoutingView


def shared_cone(graph, a: int, b: int) -> frozenset[int]:
    """ASes in both customer cones, excluding *a* and *b* themselves."""
    return (customer_cone(graph, a) & customer_cone(graph, b)) - {a, b}


def provider_cones(graph, asn: int) -> dict[int, frozenset[int]]:
    """Each provider's customer cone, minus *asn* itself."""
    return {
        provider: customer_cone(graph, provider) - {asn}
        for provider in graph.providers(asn)
    }


class TestConeOverlap:
    def test_disjoint_cones(self, mini_graph):
        # 30's cone = {30, 50}; 40's cone = {40, 60}: disjoint.
        assert shared_cone(mini_graph, 30, 40) == frozenset()

    def test_shared_customer(self, mini_graph):
        # 10's cone and 20's cone both contain AS80.
        assert shared_cone(mini_graph, 10, 20) == {80}

    def test_overlap_matrix_defaults_to_tier1(self, mini_graph):
        assert find_tier1(mini_graph) == {1, 2}
        # tier-1 cones share 80 (via 10 and 20 respectively).
        assert shared_cone(mini_graph, 1, 2) == {80}

    def test_overlap_matrix_custom_set(self, mini_graph):
        # 30's cone sits inside 10's: the shared part, endpoints
        # excluded, is {50}.
        assert customer_cone(mini_graph, 30) <= customer_cone(mini_graph, 10)
        assert shared_cone(mini_graph, 10, 30) == {50}
        assert shared_cone(mini_graph, 10, 20) == {80}


class TestProviderRedundancy:
    def test_single_homed_has_zero_redundancy(self, mini_graph):
        cones = provider_cones(mini_graph, 50)
        # One provider: nothing another provider could duplicate.
        assert set(cones) == {30}
        assert cones[30] == {30}

    def test_multihomed_overlapping_providers(self, mini_graph):
        # AS80 buys from 10 and 20; both cones contain 80 itself (removed)
        # and are otherwise disjoint -> no duplicated reach.
        cones = provider_cones(mini_graph, 80)
        assert set(cones) == {10, 20}
        assert cones[10] & cones[20] == frozenset()

    def test_overlapping_providers_show_redundancy(self):
        # Two providers that share a second customer: part of the reach
        # multi-homing buys is duplicated.
        from repro.topology.asgraph import ASGraph
        from repro.topology.relationships import Relationship

        graph = ASGraph()
        for asn in (100, 101, 102, 103):
            graph.add_as(asn)
        for provider in (100, 101):
            graph.add_relationship(provider, 102, Relationship.CUSTOMER)
            graph.add_relationship(provider, 103, Relationship.CUSTOMER)
        cones = provider_cones(graph, 102)
        union = cones[100] | cones[101]
        shared = cones[100] & cones[101]
        assert union == {100, 101, 103}
        assert cones[100] - cones[101] == {100}
        assert cones[101] - cones[100] == {101}
        assert len(shared) / len(union) == pytest.approx(1 / 3)


class TestConvergence:
    def test_stats_over_sampled_origins(self, mini_view):
        stats = measure_convergence(mini_view, sample=6, seed=1)
        assert stats.samples == 6
        assert stats.minimum >= 1
        assert stats.maximum <= 10
        assert stats.within(1, 10) == 1.0
        assert stats.mean > 0

    def test_explicit_origins(self, mini_view):
        stats = measure_convergence(mini_view, origins=[0, 1, 2])
        assert stats.samples == 3

    def test_wavefront_sums_to_reachable(self, mini_view):
        origin = mini_view.node_of(50)
        wavefront = generation_wavefront(mini_view, origin)
        # Acceptances cover every other node at least once (improvements
        # may re-accept, so the sum is >= reachable count).
        assert sum(wavefront) >= len(mini_view) - 1
        assert wavefront[0] >= 1

    def test_paper_band_on_generated_topology(self, medium_graph):
        view = RoutingView.from_graph(medium_graph)
        stats = measure_convergence(view, sample=10, seed=2)
        # Paper: "Convergence is generally reached within 5 to 10
        # generations" — our smaller topology converges at least as fast.
        assert stats.maximum <= 10
