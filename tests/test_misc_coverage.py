"""Additional behaviour coverage: chart scales, lab cache, allocator
details, suite drivers not exercised elsewhere."""

import pytest

from repro.attacks import lab as lab_module
from repro.attacks.lab import HijackLab
from repro.prefixes.addressing import AddressPlan
from repro.viz.charts import _nice_step, _ticks


class TestChartScales:
    def test_nice_step_values(self):
        assert _nice_step(10) == 2
        assert _nice_step(100) == 20
        assert _nice_step(7) == 2
        assert _nice_step(0.55) == 0.1
        assert _nice_step(0) == 1.0

    def test_ticks_cover_range(self):
        ticks = _ticks(0, 100)
        assert ticks[0] <= 0 and ticks[-1] >= 99
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_ticks_negative_range(self):
        ticks = _ticks(-50, 50)
        assert any(tick <= -40 for tick in ticks)
        assert any(tick >= 40 for tick in ticks)


class TestLabCache:
    def test_cache_bounded(self, medium_graph, monkeypatch):
        capacity = 64
        monkeypatch.setattr(lab_module, "CACHE_CAPACITY", capacity)
        lab = HijackLab(medium_graph, seed=3)
        asns = medium_graph.asns()
        attacker = asns[0]
        targets = [asn for asn in asns[1:] if asn != attacker][: capacity + 10]
        for target in targets:
            if lab.view.node_of(target) == lab.view.node_of(attacker):
                continue
            lab.origin_hijack(target, attacker)
        assert len(lab.cache) <= capacity
        assert lab.cache.stats.evictions > 0

    def test_cache_hit_returns_same_object(self, medium_graph):
        lab = HijackLab(medium_graph, seed=3)
        target_node = lab.view.node_of(medium_graph.asns()[-1])
        first = lab.cache.baseline(target_node)
        second = lab.cache.baseline(target_node)
        assert first is second

    def test_attacker_pool_modes(self, medium_graph):
        from repro.topology.classify import transit_asns

        lab = HijackLab(medium_graph, seed=3)
        assert len(lab.attacker_pool()) == len(medium_graph)
        assert set(lab.attacker_pool(transit_only=True)) == transit_asns(medium_graph)

    def test_sibling_collision_rejected(self):
        from repro.topology.asgraph import ASGraph
        from repro.topology.relationships import Relationship

        graph = ASGraph()
        graph.add_as(1, tier1=True)
        graph.add_as(2, tier1=True)
        graph.add_relationship(1, 2, Relationship.PEER)
        for asn in (10, 11):
            graph.add_as(asn)
        graph.add_relationship(1, 10, Relationship.CUSTOMER)
        graph.add_relationship(10, 11, Relationship.SIBLING)
        lab = HijackLab(graph, seed=0)
        with pytest.raises(ValueError, match="sibling"):
            lab.origin_hijack(10, 11)


class TestAllocatorDetails:
    def test_extra_prefixes_appear(self):
        weights = {asn: 10.0 for asn in range(1, 200)}
        plan = AddressPlan.build(weights, seed=1, extra_prefix_probability=0.5)
        multi = [asn for asn in plan.all_asns() if len(plan.prefixes_of(asn)) > 1]
        assert len(multi) > 30

    def test_extra_prefixes_disabled(self):
        weights = {asn: 10.0 for asn in range(1, 50)}
        plan = AddressPlan.build(weights, seed=1, extra_prefix_probability=0.0)
        assert all(len(plan.prefixes_of(asn)) == 1 for asn in plan.all_asns())

    def test_extra_prefix_is_smaller(self):
        weights = {asn: 1000.0 for asn in range(1, 80)}
        plan = AddressPlan.build(weights, seed=2, extra_prefix_probability=1.0)
        for asn in plan.all_asns():
            prefixes = sorted(plan.prefixes_of(asn), key=lambda p: p.length)
            assert len(prefixes) == 2
            assert prefixes[0].length <= prefixes[1].length


class TestSuiteExtraDrivers:
    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.suite import ExperimentSuite
        from repro.topology.generator import GeneratorConfig

        return ExperimentSuite(ExperimentConfig(
            topology=GeneratorConfig.scaled(500, seed=23),
            seed=23,
            output_dir=tmp_path_factory.mktemp("results"),
            attacker_sample=50,
            detection_attacks=100,
            external_sample=25,
        ))

    def test_fig1_frames_and_summary(self, suite):
        result = suite.fig1()
        assert result.summary["generations"] >= 2
        assert 0.0 < result.summary["address_space_fraction"] <= 1.0
        assert all(path.exists() for path in result.artifacts)

    def test_fig3(self, suite):
        result = suite.fig3()
        assert len(result.series) == 4

    def test_fig6_mirrors_fig5_structure(self, suite):
        fig5 = suite.fig5()
        fig6 = suite.fig6()
        assert set(fig5.summary["improvement_factors"]) == set(
            fig6.summary["improvement_factors"]
        )

    def test_tab2_and_tab4_and_tab5(self, suite):
        for method, table in (("tab2", "potent_attacks"), ("tab4", "undetected"),
                              ("tab5", "undetected")):
            result = getattr(suite, method)()
            assert table in result.tables

    def test_nz_filter_summary(self, suite):
        result = suite.nz_filter()
        assert 0.0 <= result.summary["regional_fraction_after"] <= 1.0
        assert result.summary["hub"] in suite.graph.asns()

    def test_run_all_covers_every_experiment(self, suite):
        # The ``figure all`` / ``report`` loop: every name runs by name.
        names = [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "tab1", "tab2",
            "fig7", "tab3", "tab4", "tab5", "nz_rehoming", "nz_filter",
            "ext_subprefix", "attack_matrix", "service_latency",
        ]
        assert [suite.run(name).experiment_id for name in names] == names

    def test_service_latency_parity(self, suite):
        result = suite.service_latency()
        assert result.summary["parity_with_offline"] is True
        (row,) = result.tables["service"]
        assert row["parity_with_offline"] is True
        assert row["verdicts"] == result.summary["offline_alarms"] > 0
