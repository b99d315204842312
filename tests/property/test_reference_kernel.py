"""The reference kernel's three export loops against the array kernel and the flood.

The reference kernel walks one sender queue per export direction (up to
providers, across to peers, down to customers), and only the up and
across loops test for a tier-1 receiver — unless some tier-1 node has a
provider, which these cases force through an explicit ``tier1=`` set.
Over random views, policies (ABL-T1 included), blocked sets that may
hold the origin, the stub first-hop filter and claimed-path padding,
a cold pass and a journaled pass stacked on it must give the array
backend's states, undo journals and ``engine.*`` counters, and, for an
honest claim, the generation-stepped flood's routes.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.engine import RoutingEngine
from repro.bgp.policy import PolicyConfig
from repro.obs.metrics import Metrics
from repro.oracle.differential import assert_states_agree
from repro.oracle.reference import ReferenceSimulator
from repro.topology.classify import find_tier1
from repro.topology.view import RoutingView

from tests.conftest import build_mini_graph
from tests.strategies import example_budget, hierarchical_topologies


@st.composite
def kernel_cases(draw):
    graph = draw(hierarchical_topologies(min_size=4, max_size=24))
    tier1 = set(find_tier1(graph))
    if draw(st.booleans(), label="a tier-1 node with a provider"):
        tier1.add(draw(st.sampled_from(sorted(set(graph.asns()) - tier1))))
    view = RoutingView.from_graph(graph, tier1=frozenset(tier1))
    nodes = st.integers(min_value=0, max_value=len(view) - 1)
    target = draw(nodes, label="target")
    attacker = draw(nodes.filter(lambda node: node != target), label="attacker")
    # The blocked set may hold either origin: an origin installs its own
    # route whatever it blocks.
    blocked = frozenset(draw(st.sets(nodes, max_size=len(view) // 2), label="blocked"))
    return {
        "view": view,
        "policy": PolicyConfig(tier1_shortest_path=draw(st.booleans(), label="tier-1 rule")),
        "target": target,
        "attacker": attacker,
        "blocked": blocked,
        "first_hop": draw(st.booleans(), label="first-hop filter"),
        "padding": draw(st.integers(min_value=0, max_value=3), label="padding"),
    }


def _tier1_customer_case():
    """AS 10 is marked tier-1 under its provider AS 1. The target AS 50
    gives it a CUSTOMER route of length 2; AS 1's own announcement then
    reaches it down, as a PROVIDER route of length 1, which only the
    tier-1 length rule installs."""
    view = RoutingView.from_graph(build_mini_graph(), tier1=frozenset({1, 2, 10}))
    return {
        "view": view,
        "policy": PolicyConfig(tier1_shortest_path=True),
        "target": view.node_of(50),
        "attacker": view.node_of(1),
        "blocked": frozenset(),
        "first_hop": False,
        "padding": 0,
    }


def _run(case, backend):
    """A cold pass of the target, then the attacker's journaled pass on it."""
    metrics = Metrics()
    engine = RoutingEngine(case["view"], case["policy"], metrics=metrics, backend=backend)
    cold = engine.converge(
        case["target"],
        blocked=case["blocked"],
        filter_first_hop_providers=case["first_hop"],
        origin_length=case["padding"],
    )
    cold_counters = dict(metrics.counters)
    metrics.counters.clear()
    state = cold.copy_for(case["target"])
    delta = engine.converge_delta(
        state,
        case["attacker"],
        blocked=case["blocked"],
        filter_first_hop_providers=case["first_hop"],
        origin_length=case["padding"],
    )
    return cold, cold_counters, state, delta, dict(metrics.counters)


@settings(max_examples=example_budget(200), deadline=None)
@given(kernel_cases())
@example(_tier1_customer_case())
def test_reference_loops_match_the_array_kernel_and_the_flood(case):
    view = case["view"]
    assert view.tier1_has_provider == any(
        view.is_tier1[node] and view.providers[node] for node in range(len(view))
    )
    ref_cold, ref_cold_counters, ref_state, ref_delta, ref_counters = _run(case, "reference")
    arr_cold, arr_cold_counters, arr_state, arr_delta, arr_counters = _run(case, "array")
    assert ref_cold.checksum() == arr_cold.checksum()
    assert ref_cold_counters == arr_cold_counters
    assert ref_state.checksum() == arr_state.checksum()
    assert ref_delta.records() == arr_delta.records()
    assert ref_counters == arr_counters
    if not case["padding"]:  # the flood announces honest one-hop claims only
        flood = ReferenceSimulator(
            view, tier1_shortest_path=case["policy"].tier1_shortest_path
        )
        table = flood.converge(
            case["target"],
            blocked=case["blocked"],
            filter_first_hop_providers=case["first_hop"],
        )
        assert_states_agree(view, ref_cold, table, context="cold pass")
        flood.converge(
            case["attacker"],
            table=table,
            blocked=case["blocked"],
            filter_first_hop_providers=case["first_hop"],
        )
        assert_states_agree(view, ref_state, table, context="journaled pass")
    ref_delta.revert(ref_state)
    assert ref_state.checksum() == ref_cold.checksum()
