"""Unit tests for the fast routing engine (against hand-computed outcomes)."""

import hashlib
import json

import numpy as np
import pytest

from repro.bgp.engine import (
    MAX_NODE,
    UNREACHABLE,
    ConvergenceDelta,
    RouteState,
    RoutingEngine,
)
from repro.bgp.policy import PolicyConfig
from repro.obs.metrics import Metrics
from repro.topology.relationships import RouteClass
from tests.route_cells import set_route, state_of


@pytest.fixture
def engine(mini_view):
    return RoutingEngine(mini_view)


def polluted_asns(result, view):
    """The ASNs holding the bogus route (sibling groups expanded)."""
    return view.expand(result.polluted_nodes)


@pytest.fixture
def chain_view():
    """Tier-1 AS1 ends up with a long customer route (via a provider
    chain) and a shorter peer route (via AS2) to the target AS13."""
    from repro.topology.asgraph import ASGraph
    from repro.topology.relationships import Relationship
    from repro.topology.view import RoutingView

    graph = ASGraph()
    graph.add_as(1, tier1=True)
    graph.add_as(2, tier1=True)
    for asn in (10, 11, 12, 13, 20):
        graph.add_as(asn)
    graph.add_relationship(1, 2, Relationship.PEER)
    graph.add_relationship(1, 10, Relationship.CUSTOMER)
    graph.add_relationship(10, 11, Relationship.CUSTOMER)
    graph.add_relationship(11, 12, Relationship.CUSTOMER)
    graph.add_relationship(12, 13, Relationship.CUSTOMER)
    graph.add_relationship(2, 20, Relationship.CUSTOMER)
    graph.add_relationship(20, 13, Relationship.CUSTOMER)
    return RoutingView.from_graph(graph)


class TestConverge:
    def test_everyone_reached(self, engine, mini_view):
        state = engine.converge(mini_view.node_of(50))
        assert all(state.has_route(node) for node in range(len(mini_view)))

    def test_classes_and_lengths(self, engine, mini_view):
        state = engine.converge(mini_view.node_of(50))
        expect = {
            50: (RouteClass.ORIGIN, 0), 30: (RouteClass.CUSTOMER, 1),
            10: (RouteClass.CUSTOMER, 2), 1: (RouteClass.CUSTOMER, 3),
            20: (RouteClass.PEER, 3), 2: (RouteClass.PEER, 4),
            80: (RouteClass.PROVIDER, 3), 40: (RouteClass.PROVIDER, 4),
            70: (RouteClass.PROVIDER, 4), 60: (RouteClass.PROVIDER, 5),
        }
        for asn, (route_class, length) in expect.items():
            node = mini_view.node_of(asn)
            assert state.cls[node] == route_class, asn
            assert state.length[node] == length, asn

    def test_parent_paths_terminate_at_origin(self, engine, mini_view):
        origin = mini_view.node_of(50)
        state = engine.converge(origin)
        for asn in (60, 70, 2, 40):
            path = state.path_from(mini_view.node_of(asn))
            assert path[-1] == origin

    def test_path_lengths_match(self, engine, mini_view):
        state = engine.converge(mini_view.node_of(50))
        for node in range(len(mini_view)):
            assert len(state.path_from(node)) == state.length[node]

    def test_empty_state_shape(self):
        state = RouteState.empty(4, origin=0)
        assert state.length == (UNREACHABLE,) * 4
        assert not state.has_route(2)
        assert not state.has_route(1)


class TestHijack:
    def test_deep_stub_attacker(self, engine, mini_view):
        result = engine.hijack(mini_view.node_of(50), mini_view.node_of(60))
        assert polluted_asns(result, mini_view) == frozenset({40, 20, 2})

    def test_tier1_stub_attacker(self, engine, mini_view):
        result = engine.hijack(mini_view.node_of(50), mini_view.node_of(70))
        assert polluted_asns(result, mini_view) == frozenset({1, 2})

    def test_precomputed_legitimate_state_reused(self, engine, mini_view):
        target = mini_view.node_of(50)
        legit = engine.converge(target)
        result = engine.hijack(target, mini_view.node_of(60), legitimate=legit)
        assert polluted_asns(result, mini_view) == frozenset({40, 20, 2})
        # The legit state must not have been mutated by the attack pass.
        assert legit.origin_of[mini_view.node_of(40)] == target

    def test_wrong_legit_state_rejected(self, engine, mini_view):
        legit = engine.converge(mini_view.node_of(50))
        with pytest.raises(ValueError):
            engine.hijack(mini_view.node_of(60), mini_view.node_of(70), legitimate=legit)

    def test_self_attack_rejected(self, engine, mini_view):
        node = mini_view.node_of(50)
        with pytest.raises(ValueError):
            engine.hijack(node, node)

    def test_blocked_node_neither_adopts_nor_propagates(self, engine, mini_view):
        result = engine.hijack(
            mini_view.node_of(50),
            mini_view.node_of(60),
            blocked=[mini_view.node_of(20)],
        )
        assert polluted_asns(result, mini_view) == frozenset({40})

    def test_first_hop_stub_filter_stops_stub_attacker(self, engine, mini_view):
        result = engine.hijack(
            mini_view.node_of(50),
            mini_view.node_of(70),
            filter_first_hop_providers=True,
        )
        assert polluted_asns(result, mini_view) == frozenset()

    def test_first_hop_filter_ignores_transit_attackers(self, engine, mini_view):
        result = engine.hijack(
            mini_view.node_of(50),
            mini_view.node_of(40),
            filter_first_hop_providers=True,
        )
        # AS40 has a customer, so the filter does not apply.
        assert polluted_asns(result, mini_view)

class TestConvergenceCounters:
    """``engine.*`` counters pinned on a fixed chain; the values were
    captured from the per-message reference queue, so queueing sender
    nodes instead must leave every one of them in place."""

    def test_delta_chain_counters_are_pinned(self, mini_view):
        metrics = Metrics()
        engine = RoutingEngine(mini_view, metrics=metrics)
        node = mini_view.node_of
        state = RouteState.empty(len(mini_view), node(50))
        engine.converge_delta(state, node(50))
        engine.converge_delta(state, node(60), blocked={node(20)})
        engine.converge_delta(state, node(70), filter_first_hop_providers=True)
        engine.converge_delta(state, node(80), origin_length=2)
        assert metrics.counters == {
            "engine.convergences": 4,
            "engine.messages": 23,
            "engine.routes_installed": 11,
            "engine.routes_replaced": 2,
            "engine.convergence_rounds": 14,
        }
        metrics.counters.clear()
        base = engine.converge(node(50))
        engine.converge_batch([node(60), node(70)], base=base)
        assert metrics.counters == {
            "engine.convergences": 3,
            "engine.messages": 28,
            "engine.routes_installed": 14,
            "engine.routes_replaced": 5,
            "engine.convergence_rounds": 15,
        }


class TestKernelBookkeeping:
    """The reference kernel counts a journaled pass off its journal and
    messages off its queued senders after the loop. Two edge passes on
    each backend: the origin's only sender group is fully blocked (one
    message, no install), and an origin without peers (no PEER entry is
    ever queued for it). Counters, rounds included, and journals must
    equal the array kernel's, for the journaled delta pass and for the
    cold pass over the same base alike."""

    CASES = {
        # AS70's only neighbour is its provider AS1, blocked.
        "sender-group-blocked": (60, 70, (1,)),
        # AS50 is a stub of AS30 with no peers.
        "origin-without-peers": (60, 50, ()),
    }

    def run(self, mini_view, backend, case):
        base_asn, origin_asn, blocked_asns = self.CASES[case]
        node = mini_view.node_of
        metrics = Metrics()
        engine = RoutingEngine(mini_view, metrics=metrics, backend=backend)
        base = engine.converge(node(base_asn))
        blocked = {node(asn) for asn in blocked_asns}
        metrics.counters.clear()
        state = base.copy_for(base.origin)
        delta = engine.converge_delta(state, node(origin_asn), blocked=blocked)
        delta_counters = dict(metrics.counters)
        metrics.counters.clear()
        cold = engine.converge(node(origin_asn), base=base, blocked=blocked)
        assert cold.checksum() == state.checksum()
        return delta_counters, dict(metrics.counters), delta.records()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counters_and_journal_match_the_array_kernel(self, mini_view, case):
        reference = self.run(mini_view, "reference", case)
        array = self.run(mini_view, "array", case)
        assert reference == array
        delta_counters, cold_counters, records = reference
        assert delta_counters == cold_counters
        assert delta_counters["engine.routes_installed"] == len(records) - 1

    def test_a_fully_blocked_group_is_one_message_and_one_round(self, mini_view):
        counters, _, records = self.run(mini_view, "reference", "sender-group-blocked")
        assert counters == {
            "engine.convergences": 1,
            "engine.messages": 1,
            "engine.routes_installed": 0,
            "engine.routes_replaced": 0,
            "engine.convergence_rounds": 2,
        }
        assert len(records) == 1  # the origin's own install only


class TestJournalFormats:
    """``ConvergenceDelta.journal`` is two plain ints per install (the
    node, then its displaced packed route) on the reference backend and
    the kernel's four int64 arrays on the array backend; both decode to
    the same records, including a node that installs twice in one pass:
    under the tier-1 ablation AS1 first installs the length-3 peer route
    via AS2, then the length-4 customer route up 13 → 12 → 11 → 10."""

    def test_layout_revert_and_backend_parity(self, chain_view):
        origin = chain_view.node_of(13)
        journals = []
        for backend in ("reference", "array"):
            engine = RoutingEngine(
                chain_view, PolicyConfig(tier1_shortest_path=False), backend=backend
            )
            state = RouteState.empty(len(chain_view), origin)
            if backend == "array":
                state = _as_arrays(state)
            before = state.checksum()
            delta = engine.converge_delta(state, origin)
            journal = delta.journal
            if backend == "reference":
                assert type(journal) is list and len(journal) == 2 * delta.touched
                assert all(type(value) is int for value in journal)
                json.dumps(journal)
                nodes = journal[::2]
                # Each displaced route is the packing of its decoded record.
                assert journal[1::2] == [
                    state_of(0, [cls], [length], [parent], [origin_of])
                    .routes[0]
                    for _node, cls, length, parent, origin_of in delta.records()
                ]
            else:
                assert len(journal) == 4
                assert all(
                    array.dtype == np.int64 and array.shape == (delta.touched,)
                    for array in journal
                )
                nodes = journal[0].tolist()
            assert nodes[0] == origin
            assert nodes.count(chain_view.node_of(1)) == 2
            records = delta.records()
            assert [record[0] for record in records] == nodes
            assert all(type(value) is int for record in records for value in record)
            delta.revert(state)
            assert state.checksum() == before
            journals.append(records)
        assert journals[0] == journals[1]


def _as_arrays(state: RouteState) -> RouteState:
    """The same content in the array kernel's representation."""
    return state_of(
        state.origin,
        np.array(state.cls, dtype=np.int64),
        np.array(state.length, dtype=np.int64),
        np.array(state.parent, dtype=np.int32),
        np.array(state.origin_of, dtype=np.int32),
    )


def _install_by_hand(state: RouteState) -> ConvergenceDelta:
    """A pass written cell by cell with its journal, in the state's own
    format: node 2 installs a provider route, then a customer route
    displaces it."""
    records = []
    packed: list[int] = []
    for node, cls, length, parent in (
        (0, int(RouteClass.ORIGIN), 0, -1),
        (2, int(RouteClass.PROVIDER), 2, 1),
        (3, int(RouteClass.CUSTOMER), 1, 0),
        (2, int(RouteClass.CUSTOMER), 2, 3),
    ):
        records.append((node, *state.route(node)))
        if state.routes is not None:
            packed += (node, state.routes[node])
        set_route(state, node, cls=cls, length=length, parent=parent, origin_of=0)
    prev_origin, state.origin = state.origin, 0
    if state.routes is not None:
        journal = packed
    else:
        nodes, old_cls, old_length, old_parent, old_origin = (
            np.array(column, dtype=np.int64) for column in zip(*records)
        )
        journal = (nodes, old_cls << 31 | old_length, old_parent, old_origin)
    delta = ConvergenceDelta(
        origin=0, prev_origin=prev_origin, blocked=frozenset(),
        first_hop_filtered=False, journal=journal,
    )
    assert delta.records() == records
    return delta


class TestRevertRestoresFirstRecord:
    """A node journaled twice in one pass gets its *first* record back:
    the list loop writes it last, the ndarray path picks it with
    ``np.unique(return_index=True)`` before its four scatters."""

    def test_list_and_ndarray_states_revert_alike(self):
        base = RouteState.empty(5, 4)
        set_route(base, 1, cls=int(RouteClass.PEER), length=3, origin_of=4)
        before = base.checksum()
        reverted = []
        for state in (base.copy_for(4), _as_arrays(base)):
            delta = _install_by_hand(state)
            assert [record[0] for record in delta.records()].count(2) == 2
            assert state.checksum() != before
            delta.revert(state)
            assert state.origin == 4
            assert state.checksum() == before
            reverted.append(state)
        assert reverted[0].checksum() == reverted[1].checksum()
        assert isinstance(reverted[1].cls, np.ndarray)

    @pytest.mark.parametrize("arrays", [False, True], ids=["list", "ndarray"])
    def test_frozen_state_refuses_a_revert(self, arrays):
        state = RouteState.empty(5, 4)
        if arrays:
            state = _as_arrays(state)
        delta = _install_by_hand(state)
        state.freeze()
        with pytest.raises(ValueError, match="frozen"):
            delta.revert(state)


def _str_per_cell_checksum(state: RouteState) -> str:
    """``RouteState.checksum`` as first written: one ``str`` call per cell."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(state.origin).encode())
    for array in (state.cls, state.length, state.parent, state.origin_of):
        if not isinstance(array, (list, tuple)):
            array = array.tolist()
        digest.update(b"|")
        digest.update(",".join(map(str, array)).encode())
    return digest.hexdigest()


class TestChecksumText:
    """The lookup-built decimal text digests exactly as ``str`` per cell."""

    @pytest.mark.parametrize("backend", ["reference", "array"])
    def test_converged_states_every_representation(self, mini_view, backend):
        engine = RoutingEngine(mini_view, backend=backend)
        target, attacker = mini_view.node_of(50), mini_view.node_of(60)
        honest = engine.converge(target)
        padded = engine.converge(attacker, base=honest, origin_length=3)
        for state in (honest, padded):
            assert state.checksum() == _str_per_cell_checksum(state)
            columns = (state.cls, state.length, state.parent, state.origin_of)
            as_lists = state_of(state.origin, *map(list, columns))
            as_arrays = state_of(
                state.origin, *(np.asarray(a, dtype=np.int64) for a in columns)
            )
            for copy in (as_lists, as_lists.copy_for(state.origin).freeze(), as_arrays):
                assert copy.checksum() == state.checksum()

    def test_sentinels_and_wide_values(self):
        columns = (
            [9, 0, 1, 2, 3],
            [UNREACHABLE, 0, 12, 3, UNREACHABLE - 1],
            [-1, -1, 1, 2, MAX_NODE],
            [-1, 1, 1, 1, MAX_NODE],
        )
        packed = state_of(7, *columns)
        assert packed.routes is not None
        assert packed.checksum() == _str_per_cell_checksum(packed)
        # An array state holds what the packed layout cannot.
        wide = [list(column) for column in columns]
        wide[1][4], wide[2][4] = 1 << 40, 100_000_000
        arrays = state_of(
            7, *(np.array(column, dtype=np.int64) for column in wide)
        )
        assert arrays.checksum() == _str_per_cell_checksum(arrays)
        assert RouteState.empty(4, 0).checksum() == _str_per_cell_checksum(
            RouteState.empty(4, 0)
        )


class TestPolicyVariants:
    def test_tier1_shortest_path_prefers_short_peer_route(self, chain_view):
        engine = RoutingEngine(chain_view)
        state = engine.converge(chain_view.node_of(13))
        node_1 = chain_view.node_of(1)
        assert state.cls[node_1] == RouteClass.PEER
        assert state.length[node_1] == 3  # via 2 -> 20 -> 13

    def test_tier1_ablation_restores_class_preference(self, chain_view):
        engine = RoutingEngine(chain_view, PolicyConfig(tier1_shortest_path=False))
        state = engine.converge(chain_view.node_of(13))
        node_1 = chain_view.node_of(1)
        assert state.cls[node_1] == RouteClass.CUSTOMER
        assert state.length[node_1] == 4  # via 10 -> 11 -> 12 -> 13
