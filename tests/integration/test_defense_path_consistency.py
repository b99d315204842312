"""Integration: the lab's engine path and flood path must agree under
a full Defense (ROV deployment + manual filters + stub filters).

``HijackLab.run_scenario`` drives the fast engine with a blocked-node set
and a first-hop flag; ``HijackLab.animate`` hands the same two inputs to
the generation-stepped reference flood. Any drift between the two wiring
paths, or between the engine and the flood under blocking, is a
correctness bug this test catches.
"""

import pytest

from repro.attacks.lab import HijackLab
from repro.defense.deployment import Defense, FilterRule
from repro.defense.strategies import top_degree_deployment
from repro.registry.publication import PublicationState
from repro.topology.classify import stub_asns, transit_asns
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def defended_lab(medium_graph):
    lab = HijackLab(medium_graph, seed=7)
    publication = PublicationState.full(lab.plan)
    strategy = top_degree_deployment(medium_graph, 25)
    some_transit = sorted(transit_asns(medium_graph))[5]
    sample_prefix = lab.target_prefix(sorted(stub_asns(medium_graph))[0])
    defense = Defense(
        strategy=strategy,
        authority=publication.table(),
        manual_filters=(
            FilterRule(
                filtering_asn=some_transit,
                prefix=sample_prefix,
                allowed_origins=frozenset(
                    {lab.plan.origin_of(sample_prefix) or -1}
                ),
            ),
        ),
        stub_filter=True,
    )
    return lab.with_defense(defense)


def _pairs(lab, count, seed):
    rng = make_rng(seed, "consistency-pairs")
    asns = lab.graph.asns()
    pairs = []
    while len(pairs) < count:
        target, attacker = rng.sample(asns, 2)
        if lab.view.node_of(target) == lab.view.node_of(attacker):
            continue
        pairs.append((target, attacker))
    return pairs


def test_engine_and_simulator_agree_under_full_defense(defended_lab):
    for target, attacker in _pairs(defended_lab, 6, seed=31):
        outcome = defended_lab.origin_hijack(target, attacker)
        _legit, attack_report = defended_lab.animate(target, attacker)
        sim_polluted = defended_lab.view.expand(attack_report.adopters) - {attacker}
        assert sim_polluted == outcome.polluted_asns, (target, attacker)


def test_stub_attackers_blocked_in_both_paths(defended_lab):
    stubs = sorted(stub_asns(defended_lab.graph))
    rng = make_rng(32, "stub-pairs")
    target = sorted(transit_asns(defended_lab.graph))[0]
    for attacker in rng.sample(stubs, 4):
        if defended_lab.view.node_of(attacker) == defended_lab.view.node_of(target):
            continue
        outcome = defended_lab.origin_hijack(target, attacker)
        _legit, attack_report = defended_lab.animate(target, attacker)
        sim_polluted = defended_lab.view.expand(attack_report.adopters) - {attacker}
        assert sim_polluted == outcome.polluted_asns
        # A stub attacker's announcement to its providers is dropped, so
        # any pollution must have leaked through peer links only.
        if not defended_lab.graph.peers(attacker):
            assert outcome.pollution_count == 0
