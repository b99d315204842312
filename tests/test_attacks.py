"""Unit tests for hijack scenarios and the HijackLab facade."""

import pytest

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import HijackKind, HijackScenario
from repro.defense.deployment import Defense
from repro.defense.strategies import DeploymentStrategy
from repro.prefixes.prefix import Prefix
from repro.registry.publication import PublicationState
from repro.topology.classify import transit_asns
from repro.util.rng import make_rng


@pytest.fixture
def mini_lab(mini_graph) -> HijackLab:
    return HijackLab(mini_graph, seed=1)


class TestScenario:
    def test_self_attack_rejected(self):
        with pytest.raises(ValueError):
            HijackScenario(1, 1, Prefix.parse("10.0.0.0/8"))

    def test_kind_default(self):
        scenario = HijackScenario(1, 2, Prefix.parse("10.0.0.0/8"))
        assert scenario.kind is HijackKind.ORIGIN


class TestOriginHijack:
    def test_matches_engine_hand_computation(self, mini_lab):
        outcome = mini_lab.origin_hijack(50, 60)
        assert outcome.polluted_asns == frozenset({40, 20, 2})
        assert outcome.pollution_count == 3

    def test_attacker_never_counts_as_polluted(self, mini_lab):
        outcome = mini_lab.origin_hijack(50, 60)
        assert 60 not in outcome.polluted_asns

    def test_address_fraction_reported(self, mini_lab):
        outcome = mini_lab.origin_hijack(50, 60)
        assert outcome.address_fraction is not None
        assert 0.0 < outcome.address_fraction < 1.0

    def test_uses_target_primary_prefix(self, mini_lab):
        outcome = mini_lab.origin_hijack(50, 60)
        assert outcome.scenario.prefix == mini_lab.target_prefix(50)

    def test_polluted_within_region(self, mini_lab, mini_graph):
        outcome = mini_lab.origin_hijack(50, 60)
        east = frozenset(mini_graph.regions()["east"])
        assert outcome.polluted_within(east) == 2  # 20 and 40


class TestSubprefixHijack:
    def test_wins_everywhere_without_defense(self, mini_lab):
        outcome = mini_lab.subprefix_hijack(50, 60)
        # A fresh more-specific has no competitor: all 9 other ASes adopt.
        assert outcome.pollution_count == 9
        assert outcome.scenario.kind is HijackKind.SUBPREFIX

    def test_announced_prefix_is_more_specific(self, mini_lab):
        outcome = mini_lab.subprefix_hijack(50, 60)
        parent = mini_lab.target_prefix(50)
        announced = outcome.scenario.prefix
        assert parent.contains(announced) and announced.length > parent.length

    def test_rov_with_maxlength_semantics_blocks(self, mini_lab):
        # Everyone publishes exact-length ROAs, so the more-specific is
        # INVALID and a full deployment blocks it everywhere.
        publication = PublicationState.full(mini_lab.plan)
        defense = Defense(
            strategy=DeploymentStrategy("all", frozenset(mini_lab.graph.asns())),
            authority=publication.table(),
        )
        defended = mini_lab.with_defense(defense)
        outcome = defended.subprefix_hijack(50, 60)
        assert outcome.pollution_count == 0


class TestDefendedLab:
    def test_with_defense_shares_topology(self, mini_lab):
        defended = mini_lab.with_defense(Defense())
        assert defended.view is mini_lab.view
        assert defended.plan is mini_lab.plan

    def test_with_defense_shares_every_per_lab_table(self, mini_lab):
        """A ladder clone made *before* first use must still share the
        lazily built tables: everything but the defense is the same
        object, so nothing is rebuilt (or silently missing) per rung."""
        defense = Defense(stub_filter=True)
        defended = mini_lab.with_defense(defense)
        assert defended.defense is defense and mini_lab.defense is not defense
        shared = {
            name: value
            for name, value in vars(mini_lab).items()
            if name != "defense"
        }
        assert shared.keys() == vars(defended).keys() - {"defense"}
        for name, value in shared.items():
            assert getattr(defended, name) is value, name
        defended.origin_hijack(50, 60)  # builds the tables through the clone
        assert defended._node_space() is mini_lab._node_space()
        assert defended.attacker_pool() is mini_lab.attacker_pool()

    def test_blocking_deployment_reduces_pollution(self, mini_lab):
        publication = PublicationState.full(mini_lab.plan)
        defense = Defense(
            strategy=DeploymentStrategy("d", frozenset([20])),
            authority=publication.table(),
        )
        defended = mini_lab.with_defense(defense)
        outcome = defended.origin_hijack(50, 60)
        assert outcome.polluted_asns == frozenset({40})
        assert outcome.blocked_asns == frozenset({20})

    def test_stub_filter_blocks_stub_attacker(self, mini_lab):
        defended = mini_lab.with_defense(Defense(stub_filter=True))
        outcome = defended.origin_hijack(50, 70)
        assert outcome.pollution_count == 0

    def test_stub_filter_spares_transit_attacker(self, mini_lab):
        defended = mini_lab.with_defense(Defense(stub_filter=True))
        outcome = defended.origin_hijack(50, 40)
        assert outcome.pollution_count > 0


class TestSweeps:
    def test_sweep_covers_all_other_ases(self, mini_lab):
        outcomes = mini_lab.sweep_target(50)
        assert set(outcomes) == set(mini_lab.graph.asns()) - {50}

    def test_sweep_transit_only(self, mini_lab, mini_graph):
        outcomes = mini_lab.sweep_target(50, transit_only=True)
        assert set(outcomes) == set(transit_asns(mini_graph)) - {50}

    def test_sweep_sampling_deterministic(self, medium_lab):
        target = medium_lab.graph.asns()[-1]
        first = medium_lab.sweep_target(target, sample=20, seed=3)
        second = medium_lab.sweep_target(target, sample=20, seed=3)
        assert list(first) == list(second)
        assert len(first) == 20

    def test_sweep_explicit_attackers(self, mini_lab):
        outcomes = mini_lab.sweep_target(50, attackers=[60, 70])
        assert set(outcomes) == {60, 70}

    def test_random_attacks_workload(self, medium_lab):
        outcomes = medium_lab.random_attacks(25, seed=9)
        assert len(outcomes) == 25
        pool = transit_asns(medium_lab.graph)
        for outcome in outcomes:
            assert outcome.scenario.attacker_asn in pool
            assert outcome.scenario.target_asn in pool

    def test_random_attacks_deterministic(self, medium_lab):
        first = medium_lab.random_attacks(10, seed=4)
        second = medium_lab.random_attacks(10, seed=4)
        assert [o.scenario for o in first] == [o.scenario for o in second]


def _filtered_sweep_pool(lab, target_asn, pool, sample, seed):
    """The sampler as it stood when it filtered the whole pool first."""
    view = lab.view
    own = frozenset(view.members[view.node_of(target_asn)])
    pool = tuple(asn for asn in pool if asn not in own)
    if sample is not None and sample < len(pool):
        rng = make_rng(lab.seed if seed is None else seed, "sweep", target_asn)
        pool = tuple(sorted(rng.sample(pool, sample)))
    return pool


class TestSweepPool:
    """Sampling skips the target's sibling group by index, drawing
    exactly what sampling the filtered pool draws."""

    @pytest.mark.parametrize("transit_only", [False, True])
    def test_draws_match_filtering_the_whole_pool(self, medium_lab, transit_only):
        view = medium_lab.view
        grouped = [asn for group in view.members if len(group) > 1 for asn in group]
        assert grouped, "the medium topology should have sibling groups"
        pool = medium_lab.attacker_pool(transit_only=transit_only)
        targets = grouped[:8] + list(medium_lab.graph.asns()[::40])
        for target in targets:
            for sample, seed in ((16, None), (16, 3), (100, 0), (1, -1),
                                 (None, 1), (len(pool), 2), (0, 5)):
                assert medium_lab._sweep_pool(target, pool, sample, seed) == (
                    _filtered_sweep_pool(medium_lab, target, pool, sample, seed)
                ), (target, sample, seed)

    def test_target_outside_the_pool(self, medium_lab):
        pool = medium_lab.attacker_pool(transit_only=True)
        stub = next(asn for asn in medium_lab.graph.asns() if asn not in pool)
        assert medium_lab._sweep_pool(stub, pool, 30, 4) == (
            _filtered_sweep_pool(medium_lab, stub, pool, 30, 4)
        )
        assert medium_lab._sweep_pool(stub, pool, None, 4) == pool


class TestSiblingExpansion:
    def test_polluted_sibling_group_counts_all_members(self):
        from repro.topology.asgraph import ASGraph
        from repro.topology.relationships import Relationship

        # tier-1 pair; victim stub under 1; sibling group {30, 31} under 2.
        graph = ASGraph()
        graph.add_as(1, tier1=True)
        graph.add_as(2, tier1=True)
        graph.add_relationship(1, 2, Relationship.PEER)
        for asn in (10, 30, 31, 40):
            graph.add_as(asn)
        graph.add_relationship(1, 10, Relationship.CUSTOMER)
        graph.add_relationship(2, 30, Relationship.CUSTOMER)
        graph.add_relationship(30, 31, Relationship.SIBLING)
        graph.add_relationship(30, 40, Relationship.CUSTOMER)
        lab = HijackLab(graph, seed=0)
        # AS40 hijacks AS10: its provider is the sibling group, which
        # adopts the bogus customer route — both members count.
        outcome = lab.origin_hijack(10, 40)
        assert {30, 31} <= outcome.polluted_asns


class TestRepeatedAnnouncements:
    def test_reannouncing_same_origin_is_stable(self, mini_view):
        from repro.oracle.reference import ReferenceSimulator

        sim = ReferenceSimulator(mini_view)
        origin = mini_view.node_of(50)
        table: dict = {}
        first = sim.announce(origin, table=table)
        snapshot = dict(table)
        second = sim.announce(origin, table=table)
        for node in range(len(mini_view)):
            route = table[node]
            assert route.origin == snapshot[node].origin
            assert route.length == snapshot[node].length
        assert second.adopters == first.adopters


class TestAnimate:
    def test_animate_reports_match_engine(self, mini_lab):
        legit, attack = mini_lab.animate(50, 60)
        assert len(legit.adopters) == 9
        polluted = {mini_lab.view.asn_of(node) for node in attack.adopters}
        assert polluted == {40, 20, 2}
        assert attack.events

    def test_animate_rejects_sibling_attacker(self):
        from repro.topology.asgraph import ASGraph
        from repro.topology.relationships import Relationship

        # AS30 and AS31 are siblings: one routing node, so "AS31 hijacks
        # AS30" would overwrite the target's own route.
        graph = ASGraph()
        graph.add_as(1, tier1=True)
        for asn in (30, 31):
            graph.add_as(asn)
            graph.add_relationship(1, asn, Relationship.CUSTOMER)
        graph.add_relationship(30, 31, Relationship.SIBLING)
        lab = HijackLab(graph, seed=0)
        with pytest.raises(ValueError, match="sibling group") as from_run:
            lab.origin_hijack(30, 31)
        with pytest.raises(ValueError, match="sibling group") as from_animate:
            lab.animate(30, 31)
        assert str(from_animate.value) == str(from_run.value)
