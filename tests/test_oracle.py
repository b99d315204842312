"""Unit tests for the oracle package: reference simulator semantics on a
hand-verifiable topology, the differential comparison itself, and the
``validate=`` plumbing through engine, lab and cache."""

import pytest

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.defense.deployment import Defense
from repro.oracle import (
    InvariantViolation,
    ReferenceRoute,
    ReferenceSimulator,
    check_cache_coherence,
)
from repro.oracle.differential import DifferentialError, assert_states_agree, compare_states
from repro.oracle.reference import CUSTOMER, ORIGIN, PEER, PROVIDER
from tests.route_cells import set_route


# -- the reference simulator on the mini topology ---------------------------


def test_reference_routes_carry_full_paths(mini_view):
    """Routes are explicit paths ending at the origin; length is always
    the path length (nothing incrementally maintained to drift)."""
    origin = mini_view.node_of(50)
    table = ReferenceSimulator(mini_view).converge(origin)
    assert table[origin] == ReferenceRoute(origin=origin, path=(), route_class=ORIGIN)
    for node, route in table.items():
        assert route.length == len(route.path)
        if node != origin:
            assert route.path[-1] == origin
            assert route.origin == origin
            # The path is a real walk over view edges, node first hop last.
            hops = (node, *route.path)
            for a, b in zip(hops, hops[1:]):
                assert (
                    b in mini_view.customers[a]
                    or b in mini_view.peers[a]
                    or b in mini_view.providers[a]
                )


def test_reference_classes_follow_relationships(mini_view):
    """AS 50's announcement climbs the customer chain 30 → 10 → 1 as
    customer routes, crosses peerings as peer routes, and descends as
    provider routes — the valley-free shape, verified by hand."""
    table = ReferenceSimulator(mini_view).converge(mini_view.node_of(50))
    classes = {asn: table[mini_view.node_of(asn)].route_class
               for asn in (30, 10, 1, 2, 20, 40, 60)}
    assert classes[30] == CUSTOMER
    assert classes[10] == CUSTOMER
    assert classes[1] == CUSTOMER
    assert classes[2] == PEER  # tier-1 peering from 1
    assert classes[20] == PEER  # lateral peering from 10
    assert classes[40] == PROVIDER
    assert classes[60] == PROVIDER


def test_reference_valley_free_blocks_peer_reexport(mini_view):
    """A peer-learned route must not be exported onward to peers or
    providers: 2 learns AS 50's route from its peer 1, so 2 may only pass
    it down to its customer cone — which is how 20/40/60 get provider
    routes rather than anything shorter."""
    table = ReferenceSimulator(mini_view).converge(mini_view.node_of(50))
    node_60 = mini_view.node_of(60)
    # 60's route descends 20 → 40 → 60 after the 10–20 peer crossing:
    # five ASes traversed (50, 30, 10, 20, 40).
    assert table[node_60].route_class == PROVIDER
    assert table[node_60].length == 5


def test_reference_matches_engine_on_mini_topology(mini_view):
    engine = RoutingEngine(mini_view)
    oracle = ReferenceSimulator(mini_view)
    for asn in (50, 80, 1, 20):
        origin = mini_view.node_of(asn)
        assert_states_agree(
            mini_view, engine.converge(origin), oracle.converge(origin)
        )


def test_reference_hijack_matches_engine(mini_view):
    target = mini_view.node_of(50)
    attacker = mini_view.node_of(60)
    result = RoutingEngine(mini_view).hijack(target, attacker)
    table = ReferenceSimulator(mini_view).hijack(target, attacker)
    assert_states_agree(mini_view, result.final, table)
    assert result.polluted_nodes == ReferenceSimulator.holders_of(table, attacker)


def test_reference_rejects_self_hijack(mini_view):
    with pytest.raises(ValueError):
        ReferenceSimulator(mini_view).hijack(3, 3)


# -- the comparison reports precise disagreements ---------------------------


def test_compare_states_flags_each_field(mini_view):
    origin = mini_view.node_of(50)
    state = RoutingEngine(mini_view).converge(origin)
    table = ReferenceSimulator(mini_view).converge(origin)
    assert compare_states(mini_view, state, table) == []

    node = mini_view.node_of(60)
    doctored = dict(table)
    doctored[node] = ReferenceRoute(
        origin=table[node].origin,
        path=table[node].path + (table[node].path[-1],),
        route_class=table[node].route_class,
    )
    fields = {d.field for d in compare_states(mini_view, state, doctored)}
    assert fields == {"length"}

    del doctored[node]
    fields = {d.field for d in compare_states(mini_view, state, doctored)}
    assert fields == {"reachable"}

    with pytest.raises(DifferentialError, match="doctored run"):
        assert_states_agree(mini_view, state, doctored, context="doctored run")


# -- validate= plumbing -----------------------------------------------------


def test_validated_engine_matches_plain(mini_view):
    plain = RoutingEngine(mini_view)
    checked = RoutingEngine(mini_view, validate=True)
    origin = mini_view.node_of(80)
    assert plain.converge(origin).checksum() == checked.converge(origin).checksum()


def test_validated_lab_runs_attacks(mini_graph):
    """The full lab with runtime validation on: origin and sub-prefix
    hijacks, stub filter engaged, cache coherent afterwards."""
    lab = HijackLab(
        mini_graph, defense=Defense(stub_filter=True), seed=5, validate=True
    )
    assert lab.engine.validate and lab.cache.engine is lab.engine
    origin = lab.origin_hijack(target_asn=50, attacker_asn=60)
    sub = lab.subprefix_hijack(target_asn=50, attacker_asn=60)
    assert origin.polluted_asns <= sub.polluted_asns
    clone = lab.with_defense(Defense())
    assert clone.validate
    clone.origin_hijack(target_asn=50, attacker_asn=60)
    check_cache_coherence(lab.cache)


def test_validated_tier1_forged_path_attacker_is_stable():
    """A tier-1 attacker forging a type-N path holds its own padded
    origin route even though length-only ranking says a customer's
    shorter offer "beats" it — the announcer never replaces its own
    announcement, and the stability invariant must not flag it
    (regression: Hypothesis found this via taxonomy_scenarios)."""
    from repro.attacks.scenario import HijackKind, PathKind
    from repro.topology.asgraph import ASGraph, Relationship

    graph = ASGraph()
    graph.add_as(0, tier1=True)
    for asn in (1, 2, 3):
        graph.add_as(asn, region="west")
        graph.add_relationship(0, asn, Relationship.CUSTOMER)
    lab = HijackLab(graph, seed=0, validate=True)
    scenario = lab.build_scenario(
        1, 0, kind=HijackKind.ORIGIN, path_kind=PathKind.TYPE_N, forged_depth=1
    )
    outcome = lab.run_scenario(scenario)
    assert outcome.claimed_path[0] == 0


def test_cache_coherence_audit_detects_mutation(mini_graph):
    # A validating lab records insert checksums, which the audit compares.
    lab = HijackLab(mini_graph, seed=5, validate=True)
    lab.origin_hijack(target_asn=50, attacker_asn=60)
    check_cache_coherence(lab.cache)
    (_origin, (state, _checksum)) = lab.cache.entries()[0]
    state.routes = list(state.routes)
    for node, value in enumerate(state.origin_of):
        if value >= 0:
            set_route(state, node, origin_of=value + 1)
    state.freeze()
    with pytest.raises(InvariantViolation, match="cache"):
        check_cache_coherence(lab.cache)


def test_strategies_module_exposes_shared_composites():
    """The strategy library exports the composites the suite shares."""
    from tests import strategies

    for name in ("flat_graphs", "hierarchical_topologies", "hijack_cases",
                 "roa_tables", "deployment_vectors", "example_budget"):
        assert hasattr(strategies, name)


def test_example_budget_scales_with_env(monkeypatch):
    from tests.strategies import example_budget

    monkeypatch.delenv("REPRO_FUZZ_MULTIPLIER", raising=False)
    assert example_budget(50) == 50
    monkeypatch.setenv("REPRO_FUZZ_MULTIPLIER", "10")
    assert example_budget(50) == 500
    monkeypatch.setenv("REPRO_FUZZ_MULTIPLIER", "")
    assert example_budget(50) == 50
