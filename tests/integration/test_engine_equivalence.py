"""The library's central correctness property: the fast engine computes
exactly the stable state the generation-stepped flood converges to.

Random Gao–Rexford-shaped topologies (hierarchical provider DAG + random
peering + occasional siblings) are generated with hypothesis; for random
(target, attacker) pairs the engine and the oracle's reference flood run
the full two-phase hijack and must agree on every node's installed
origin, route class and path length.

A second layer extends the property to the lab's convergence cache:
with the cache cold or hot, a sweep's per-attack
outcomes (pollution sets, blocked sets, address fractions, result
ordering) must be bit-identical to a fresh lab's reference sweep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.bgp.policy import PolicyConfig
from repro.oracle.reference import ReferenceSimulator
from repro.topology.view import RoutingView

from tests.strategies import example_budget, hierarchical_topologies

# The internet-shaped topology strategy lives in the shared library
# (tests/strategies.py); the oracle-differential suite draws from the
# same shape, so both suites cover one domain.
random_topologies = hierarchical_topologies


def assert_states_agree(view, table, engine_state):
    for node in range(len(view)):
        route = table.get(node)
        if route is None:
            assert not engine_state.has_route(node), (
                f"engine found a route at node {node}, the flood did not"
            )
            continue
        assert engine_state.has_route(node), f"missing route at node {node}"
        assert engine_state.origin_of[node] == route.origin, node
        assert engine_state.cls[node] == route.route_class, node
        assert engine_state.length[node] == route.length, node


@settings(max_examples=example_budget(120), deadline=None)
@given(random_topologies(), st.data())
def test_hijack_outcomes_identical(graph, data):
    view = RoutingView.from_graph(graph)
    if len(view) < 2:
        return
    nodes = range(len(view))
    target = data.draw(st.sampled_from(nodes), label="target")
    attacker = data.draw(st.sampled_from(nodes), label="attacker")
    if target == attacker:
        return

    flood = ReferenceSimulator(view)
    table = flood.hijack(target, attacker)

    engine = RoutingEngine(view)
    result = engine.hijack(target, attacker)

    assert result.polluted_nodes == flood.holders_of(table, attacker)
    assert_states_agree(view, table, result.final)


@settings(max_examples=example_budget(60), deadline=None)
@given(random_topologies(), st.data())
def test_legitimate_convergence_identical(graph, data):
    view = RoutingView.from_graph(graph)
    origin = data.draw(st.sampled_from(range(len(view))), label="origin")
    table = ReferenceSimulator(view).converge(origin)
    state = RoutingEngine(view).converge(origin)
    assert_states_agree(view, table, state)


@settings(max_examples=example_budget(40), deadline=None)
@given(random_topologies(), st.data())
def test_equivalence_without_tier1_exception(graph, data):
    view = RoutingView.from_graph(graph)
    if len(view) < 2:
        return
    target = data.draw(st.sampled_from(range(len(view))), label="target")
    attacker = data.draw(st.sampled_from(range(len(view))), label="attacker")
    if target == attacker:
        return
    policy = PolicyConfig(tier1_shortest_path=False)
    flood = ReferenceSimulator(view, tier1_shortest_path=False)
    table = flood.hijack(target, attacker)
    result = RoutingEngine(view, policy).hijack(target, attacker)
    assert result.polluted_nodes == flood.holders_of(table, attacker)


@settings(max_examples=example_budget(40), deadline=None)
@given(random_topologies(), st.data())
def test_equivalence_with_blocking(graph, data):
    view = RoutingView.from_graph(graph)
    if len(view) < 3:
        return
    nodes = range(len(view))
    target = data.draw(st.sampled_from(nodes), label="target")
    attacker = data.draw(st.sampled_from(nodes), label="attacker")
    if target == attacker:
        return
    blocked = frozenset(
        data.draw(
            st.sets(st.sampled_from(nodes), max_size=len(view) // 2),
            label="blocked",
        )
    ) - {target, attacker}

    flood = ReferenceSimulator(view)
    table = flood.hijack(target, attacker, blocked=blocked)
    result = RoutingEngine(view).hijack(target, attacker, blocked=blocked)
    assert result.polluted_nodes == flood.holders_of(table, attacker)


# -- the parallel executor computes exactly the sequential sweep ------------


def assert_sweeps_identical(reference, candidate):
    """Bit-level equality of two sweep results, ordering included."""
    assert list(reference.keys()) == list(candidate.keys())
    for key in reference:
        a, b = reference[key], candidate[key]
        assert a.scenario == b.scenario, key
        assert a.polluted_asns == b.polluted_asns, key
        assert a.blocked_asns == b.blocked_asns, key
        assert a.address_fraction == b.address_fraction, key


@settings(max_examples=example_budget(10), deadline=None)
@given(random_topologies(), st.data())
def test_parallel_sweep_bit_identical(graph, data):
    """Random topology, random target: the sweep is the same with the
    cache cold and hot."""
    asns = sorted(graph.asns())
    if len(asns) < 6:
        return
    target = data.draw(st.sampled_from(asns), label="target")
    lab = HijackLab(graph, seed=1)
    cold = lab.sweep_target(target)
    hot = lab.sweep_target(target)  # baselines now cached
    assert_sweeps_identical(cold, hot)


def test_parallel_sweep_medium_topology(medium_lab):
    """A 120-attacker sweep on the 900-AS topology: a second lab, its
    cache cold then hot, agrees with the shared lab's reference."""
    target = medium_lab.attacker_pool(transit_only=True)[7]
    reference = medium_lab.sweep_target(target, sample=120, seed=11)
    lab = HijackLab(
        medium_lab.graph,
        plan=medium_lab.plan,
        seed=medium_lab.seed,
    )
    cold = lab.sweep_target(target, sample=120, seed=11)
    assert_sweeps_identical(reference, cold)
    hot = lab.sweep_target(target, sample=120, seed=11)
    assert_sweeps_identical(reference, hot)


def test_parallel_random_attacks_bit_identical(medium_lab):
    """The Fig. 7 workload draws the same pairs and outcomes on a second
    lab, cold or hot cache."""
    reference = medium_lab.random_attacks(40, seed=13)
    lab = HijackLab(
        medium_lab.graph,
        plan=medium_lab.plan,
        seed=medium_lab.seed,
    )
    for _pass in ("cold", "hot"):
        outcomes = lab.random_attacks(40, seed=13)
        assert [o.scenario for o in outcomes] == [
            o.scenario for o in reference
        ]
        assert [o.polluted_asns for o in outcomes] == [
            o.polluted_asns for o in reference
        ]
        assert [o.address_fraction for o in outcomes] == [
            o.address_fraction for o in reference
        ]
