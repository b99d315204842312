"""Calibration tests for the synthetic topology generator.

These pin the structural statistics the reproduction depends on: the
paper's CAIDA snapshot has 17 tier-1s, 14.7% transit ASes, and deep stubs
(depth 5+) — the experiment roles must exist at every supported scale.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.classify import effective_depth, find_tier1, stub_asns, summarize
from repro.topology.generator import (
    GeneratorConfig,
    default_address_plan,
    generate_topology,
)

from tests.conftest import MEDIUM_CONFIG
from tests.strategies import example_budget


class TestConfig:
    def test_defaults_valid(self):
        GeneratorConfig()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(as_count=50)

    def test_more_tier2_providers_than_tier1s_rejected(self):
        with pytest.raises(ValueError, match="3 tier-1 providers"):
            GeneratorConfig(as_count=1000, tier1_count=3, tier2_count=20, region_count=3,
                            chains_per_region=1)

    def test_bad_multihome_distribution(self):
        with pytest.raises(ValueError):
            GeneratorConfig(stub_multihome_probabilities=(0.5, 0.4))

    def test_scaled_produces_valid_configs(self):
        for size in (400, 900, 2000, 4270):
            config = GeneratorConfig.scaled(size)
            graph = generate_topology(config)
            assert len(graph) == size

    @settings(max_examples=example_budget(30), deadline=None)
    @given(size=st.integers(min_value=50, max_value=400))
    def test_scaled_builds_or_names_its_limit(self, size):
        # Below the limit the config refuses up front, naming it; at and
        # above it the generator builds exactly the requested size.
        if size < 160:
            with pytest.raises(ValueError, match=r"smallest scaled topology \(160 ASes\)"):
                GeneratorConfig.scaled(size)
        else:
            assert len(generate_topology(GeneratorConfig.scaled(size))) == size

    @pytest.mark.parametrize("size", [159, 160, 200, 250, 279, 400])
    def test_scaled_limit_edges(self, size):
        # 160 is the first size whose transit budget fits; 160–279 have
        # three tier-1s, fewer than the default four tier-2 providers.
        if size < 160:
            with pytest.raises(ValueError, match="160"):
                GeneratorConfig.scaled(size)
        else:
            config = GeneratorConfig.scaled(size)
            assert config.tier2_provider_range == (2, min(4, config.tier1_count))
            assert len(generate_topology(config)) == size

    def test_scaled_accepts_overrides(self):
        config = GeneratorConfig.scaled(900, region_count=4, seed=3)
        assert config.region_count == 4
        assert config.seed == 3


class TestStructure:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_topology(MEDIUM_CONFIG)

    def test_exact_as_count(self, graph):
        assert len(graph) == MEDIUM_CONFIG.as_count

    def test_tier1_clique(self, graph):
        tier1 = find_tier1(graph)
        assert len(tier1) == MEDIUM_CONFIG.tier1_count
        members = sorted(tier1)
        for index, a in enumerate(members):
            for b in members[index + 1:]:
                assert b in graph.peers(a), "tier-1 mesh must be complete"
            assert not graph.providers(a), "tier-1 ASes are provider-free"

    def test_transit_fraction_in_band(self, graph):
        stats = summarize(graph)
        assert 0.10 <= stats.transit_fraction <= 0.22

    def test_everyone_reaches_tier1_via_providers(self, graph):
        # depth defined for every AS = provider chains all terminate at the core.
        depth = effective_depth(graph)
        assert set(depth) == set(graph.asns())

    def test_deep_stubs_exist(self, graph):
        depth = effective_depth(graph)
        stubs = stub_asns(graph)
        assert max(depth[s] for s in stubs) >= 4

    def test_depth1_roles_exist(self, graph):
        tier1 = find_tier1(graph)
        single = multi = False
        for asn in stub_asns(graph):
            providers = graph.providers(asn)
            if providers and providers <= tier1:
                single = single or len(providers) == 1
                multi = multi or len(providers) >= 2
        assert single and multi

    def test_regions_cover_non_tier1(self, graph):
        regioned = {asn for members in graph.regions().values() for asn in members}
        tier1 = find_tier1(graph)
        assert regioned == set(graph.asns()) - tier1

    def test_heavy_tailed_degrees(self, graph):
        degrees = sorted((graph.degree(a) for a in graph.asns()), reverse=True)
        # Top 1% of ASes should hold a disproportionate share of links.
        top = sum(degrees[: max(1, len(degrees) // 100)])
        assert top / sum(degrees) > 0.05
        assert degrees[0] >= 10 * degrees[len(degrees) // 2]

    def test_validates(self, graph):
        graph.validate()


class TestIslandRegion:
    def test_island_members_buy_transit_inside_only(self, medium_graph):
        regions = medium_graph.regions()
        island = min(regions, key=lambda name: len(regions[name]))
        members = set(regions[island])
        from repro.topology.classify import find_tier1, find_tier2

        gateways = find_tier2(medium_graph) | find_tier1(medium_graph)
        for asn in members:
            if asn in gateways:
                continue  # gateway carriers hold the external links
            providers = medium_graph.providers(asn)
            assert providers <= members, (
                f"island AS{asn} buys transit outside the region"
            )

    def test_island_can_be_disabled(self):
        config = GeneratorConfig.scaled(500, seed=9, island_region=False)
        graph = generate_topology(config)
        regions = graph.regions()
        smallest = min(regions, key=lambda name: len(regions[name]))
        members = set(regions[smallest])
        outside_buyers = [
            asn
            for asn in members
            if graph.providers(asn) and not graph.providers(asn) <= members
        ]
        assert outside_buyers, "without the island flag some members mix"


class TestDeterminism:
    def test_same_seed_same_topology(self):
        config = GeneratorConfig.scaled(400, seed=11)
        first = generate_topology(config)
        second = generate_topology(config)
        assert list(first.edges()) == list(second.edges())

    def test_different_seed_different_topology(self):
        first = generate_topology(GeneratorConfig.scaled(400, seed=11))
        second = generate_topology(GeneratorConfig.scaled(400, seed=12))
        assert list(first.edges()) != list(second.edges())


class TestAddressPlan:
    def test_every_as_allocated(self, medium_graph):
        plan = default_address_plan(medium_graph)
        for asn in medium_graph.asns():
            assert plan.prefixes_of(asn)

    def test_core_owns_more_space(self, medium_graph):
        plan = default_address_plan(medium_graph)
        tier1 = next(iter(find_tier1(medium_graph)))
        stub = min(stub_asns(medium_graph))
        assert plan.address_space_of(tier1) > plan.address_space_of(stub)
