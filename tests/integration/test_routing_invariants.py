"""Integration: structural invariants of converged routing states.

The invariants are checked on the generation-stepped flood's installed
routes (the oracle's reference flood), which carry their full install-time
AS paths. (The fast engine stores only final next-hop pointers; in the
paper's announce-only model a neighbor may upgrade its route *after*
exporting, leaving perfectly valid "stale" entries whose final-state
pointer chains are not length-consistent — the install-time path is the
authoritative object, and engine/flood equality of (origin, class,
length) is covered by ``test_engine_equivalence``.)
"""

import pytest

from repro.bgp.engine import RoutingEngine
from repro.oracle.reference import ReferenceSimulator
from repro.topology.relationships import RouteClass
from repro.topology.view import RoutingView
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def view(medium_graph) -> RoutingView:
    return RoutingView.from_graph(medium_graph)


def edge_class(view, node, neighbor) -> RouteClass:
    """Class a route takes at *node* when learned from *neighbor*."""
    if neighbor in view.customers[node]:
        return RouteClass.CUSTOMER
    if neighbor in view.peers[node]:
        return RouteClass.PEER
    assert neighbor in view.providers[node]
    return RouteClass.PROVIDER


def check_path_valley_free(view, node, route):
    """The install-time path must be a valley-free, loop-free walk."""
    hops = [node, *route.path]
    assert len(set(hops)) == len(hops), f"loop in path at node {node}"
    classes = [
        edge_class(view, receiver, sender)
        for receiver, sender in zip(hops, hops[1:])
    ]
    assert classes[0] == route.route_class
    # Shape: zero or more CUSTOMER hops (downhill, seen from the
    # receiver), at most one PEER hop, then zero or more PROVIDER hops.
    phase = 0  # 0 = customer hops, 1 = after the peer hop, 2 = providers
    for hop_class in reversed(classes):
        # Walk origin -> node: the route climbs while receivers see
        # CUSTOMER, may cross one peer link, then descends.
        if hop_class is RouteClass.CUSTOMER:
            assert phase == 0, "uphill after peer/downhill = valley"
        elif hop_class is RouteClass.PEER:
            assert phase == 0, "second peer hop = valley"
            phase = 1
        else:
            phase = 2


def run_hijack(view):
    rng = make_rng(41, "invariants")
    target, attacker = rng.sample(range(len(view)), 2)
    return ReferenceSimulator(view).hijack(target, attacker)


def test_legitimate_routes_valley_free_and_consistent(view):
    rng = make_rng(42, "invariant-origins")
    origin = rng.randrange(len(view))
    table = ReferenceSimulator(view).converge(origin)
    reached = 0
    for node in range(len(view)):
        route = table.get(node)
        assert route is not None, f"node {node} unreachable"
        reached += 1
        if node == origin:
            continue
        assert route.origin == origin
        assert route.length == len(route.path)
        assert route.path[-1] == origin
        check_path_valley_free(view, node, route)
    assert reached == len(view)


def test_hijacked_routes_valley_free_and_consistent(view):
    table = run_hijack(view)
    for node in range(len(view)):
        route = table.get(node)
        if route is None or not route.path:
            continue
        assert route.path[-1] == route.origin
        check_path_valley_free(view, node, route)


def test_preference_no_node_holds_a_strictly_worse_class_than_available(view):
    """No non-tier-1 node may end with a provider route while a customer
    route was available from a customer that exports to it."""
    table = run_hijack(view)
    for node in range(len(view)):
        route = table.get(node)
        if route is None or view.is_tier1[node]:
            continue
        if route.route_class == RouteClass.PROVIDER:
            for customer in view.customers[node]:
                customer_route = table.get(customer)
                if customer_route is None:
                    continue
                # The customer's route, if exportable upward, would have
                # been offered; node must not have ignored it.
                assert customer_route.route_class not in (
                    RouteClass.ORIGIN, RouteClass.CUSTOMER,
                ), f"node {node} ignored a customer route via {customer}"


def test_blocking_invariants(view):
    """Blocked nodes are never polluted; blocking everyone stops the attack.

    Note that pollution is *not* formally monotone in the blocked set (a
    blocked peer can redirect a tier-1 onto a wider-exporting customer
    route), so we assert only the guarantees the model actually makes.
    """
    engine = RoutingEngine(view)
    rng = make_rng(8, "invariant-blocking")
    target, attacker = rng.sample(range(len(view)), 2)
    blocked = frozenset(rng.sample(range(len(view)), 40)) - {target, attacker}
    result = engine.hijack(target, attacker, blocked=blocked)
    assert not result.polluted_nodes & blocked
    everyone = frozenset(range(len(view))) - {attacker}
    total_block = engine.hijack(target, attacker, blocked=everyone)
    assert total_block.polluted_nodes == frozenset()
