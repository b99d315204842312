"""Unit tests for the CAIDA-scale fixture generator.

The full 42,697-AS build is exercised by the scale bench and the nightly
integration test; here a proportionally shrunk configuration checks the
generator's contract fast: exact AS count, deterministic output, a
tier-1 clique, deep chains for the Fig. 2 depth ordering, and a lossless
round-trip through the real CAIDA serial-1 parser.
"""

from __future__ import annotations

import pytest

from repro.topology.caida import load_caida
from repro.topology.classify import effective_depth, find_tier1
from repro.topology.scalefixture import (
    ScaleFixtureConfig,
    generate_scale_fixture,
    write_scale_fixture,
)

SMALL = ScaleFixtureConfig.scaled(1500, seed=11)


@pytest.fixture(scope="module")
def small_graph():
    return generate_scale_fixture(SMALL)


class TestConfig:
    def test_defaults_match_paper_headline(self):
        config = ScaleFixtureConfig()
        assert config.as_count == 42_697
        assert config.link_target == 139_156
        assert config.tier1_count == 17

    def test_scaled_shrinks_proportionally(self):
        assert SMALL.as_count == 1500
        assert SMALL.link_target == round(139_156 * 1500 / 42_697)
        assert SMALL.tier1_count == 17  # >= 1200 keeps the full clique

    def test_rejects_impossible_shapes(self):
        with pytest.raises(ValueError, match="tier-1"):
            ScaleFixtureConfig(tier1_count=1)
        with pytest.raises(ValueError, match="transit budget"):
            ScaleFixtureConfig(as_count=600, link_target=2000)


class TestGeneration:
    def test_exact_as_count(self, small_graph):
        assert len(small_graph.asns()) == SMALL.as_count

    def test_deterministic(self, small_graph):
        again = generate_scale_fixture(SMALL)
        assert small_graph.asns() == again.asns()
        for asn in small_graph.asns():
            assert small_graph.providers(asn) == again.providers(asn)
            assert small_graph.peers(asn) == again.peers(asn)
        assert list(small_graph.edges()) == list(again.edges())

    def test_seed_changes_topology(self):
        other = generate_scale_fixture(ScaleFixtureConfig.scaled(1500, seed=12))
        assert any(
            other.providers(asn) != generate_scale_fixture(SMALL).providers(asn)
            for asn in other.asns()
        )

    def test_tier1_clique_is_marked_and_found(self, small_graph):
        tier1 = find_tier1(small_graph)
        assert len(tier1) == SMALL.tier1_count
        assert tier1 == small_graph.marked_tier1()
        for a in tier1:
            assert tier1 - {a} <= small_graph.peers(a)

    def test_deep_chains_reach_configured_depth(self, small_graph):
        # Depth is anchored at the tier-1/tier-2 layer, which can absorb
        # one chain hop at small scale; resolve_roles needs a deep target
        # at depth >= 4 (the AS55857 analogue), so that is the contract.
        depth = effective_depth(small_graph)
        assert max(depth.values()) >= max(4, SMALL.chain_depth - 1)

    def test_link_count_near_target(self, small_graph):
        realized = small_graph.edge_count()
        assert realized >= SMALL.link_target
        # The fill loops overshoot by at most a handful of multi-home links.
        assert realized <= SMALL.link_target * 1.1


class TestRoundTrip:
    def test_written_fixture_survives_the_real_parser(self, tmp_path, small_graph):
        path = tmp_path / "scale.txt.gz"
        write_scale_fixture(path, SMALL)
        parsed = load_caida(path)
        assert parsed.asns() == small_graph.asns()
        assert parsed.edge_count() == small_graph.edge_count()
        for asn in parsed.asns():
            assert parsed.providers(asn) == small_graph.providers(asn)
            assert parsed.peers(asn) == small_graph.peers(asn)
