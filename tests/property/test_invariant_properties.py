"""The invariant suite holds on everything the engine produces — and
actually fires on corrupted states.

Half of the value of a runtime checker is that it never cries wolf on
legitimate outcomes (first two properties); the other half is that it
*does* catch the failure modes it claims to (the corruption tests, which
break a genuinely converged state in targeted ways and expect
:class:`InvariantViolation`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.engine import _NO_CLASS, UNREACHABLE, RoutingEngine
from repro.oracle import InvariantViolation, check_hijack_result, check_route_state
from repro.oracle.invariants import check_convergence_deterministic

from tests.strategies import example_budget, hijack_cases, routing_views
from tests.route_cells import set_route


@settings(max_examples=example_budget(80), deadline=None)
@given(hijack_cases())
def test_hijack_outcomes_satisfy_invariants(case):
    engine = RoutingEngine(case.view, case.policy)
    result = engine.hijack(
        case.target,
        case.attacker,
        blocked=case.blocked,
        filter_first_hop_providers=case.first_hop_filtered,
    )
    check_hijack_result(
        case.view,
        result,
        policy=case.policy,
        blocked=case.blocked,
        first_hop_filtered=case.first_hop_filtered,
    )


@settings(max_examples=example_budget(40), deadline=None)
@given(routing_views(), st.data())
def test_legitimate_states_satisfy_invariants(view, data):
    origin = data.draw(st.integers(min_value=0, max_value=len(view) - 1),
                       label="origin")
    engine = RoutingEngine(view)
    check_route_state(view, engine.converge(origin))
    check_convergence_deterministic(engine, origin)


# -- the checker fires on corrupted states ----------------------------------


@pytest.fixture
def converged(mini_view):
    """A genuinely converged state plus its view, ready to corrupt."""
    state = RoutingEngine(mini_view).converge(mini_view.node_of(50))
    return mini_view, state


def routed_non_origin(state):
    return next(
        node
        for node in range(len(state.cls))
        if state.has_route(node) and state.parent[node] >= 0
    )


def test_clean_state_passes(converged):
    view, state = converged
    check_route_state(view, state)


def test_detects_half_routed_node(converged):
    view, state = converged
    node = routed_non_origin(state)
    set_route(state, node, cls=_NO_CLASS)  # class gone, length/origin left behind
    with pytest.raises(InvariantViolation, match="shape"):
        check_route_state(view, state)


def test_detects_non_neighbor_parent(converged):
    view, state = converged
    node = routed_non_origin(state)
    strangers = [
        other
        for other in range(len(view))
        if other != node
        and other not in view.customers[node]
        and other not in view.peers[node]
        and other not in view.providers[node]
    ]
    set_route(state, node, parent=strangers[0])
    with pytest.raises(InvariantViolation, match="parent-edge"):
        check_route_state(view, state)


def test_detects_length_drift(converged):
    """An off-by-one path length — the classic incremental-state bug —
    violates preference stability (the true shorter route is on offer)."""
    view, state = converged
    node = routed_non_origin(state)
    set_route(state, node, length=state.route(node)[1] + 1)
    with pytest.raises(InvariantViolation):
        check_route_state(view, state)


def test_detects_unreachable_marker_mismatch(converged):
    view, state = converged
    node = routed_non_origin(state)
    set_route(state, node, length=UNREACHABLE)
    with pytest.raises(InvariantViolation, match="shape"):
        check_route_state(view, state)


def test_detects_route_held_by_blocked_node(converged):
    """Declaring a routed node as blocked for the pass that produced the
    state is a contradiction the blocked-coherence check reports."""
    view, state = converged
    node = routed_non_origin(state)
    with pytest.raises(InvariantViolation):
        check_route_state(view, state, blocked={node})
