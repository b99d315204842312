"""Unit tests for the flat-array convergence backend's plumbing.

The checksum-equivalence *behaviour* is covered by the property battery
(``tests/property/test_kernel_equivalence.py``) and the full-scale
integration test; this file pins the plumbing around it: backend-knob
validation, the per-view compile memo, the CSR layouts (including the
fused valley-free export adjacency and its parallel kind codes), the
lazy re-exports on :mod:`repro.bgp`, the test-first install order, and
a sweep's holders read that builds no column state.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.bgp as bgp
import repro.bgp.kernel as kernel
from repro.attacks.lab import ConvergenceCache, HijackLab
from repro.attacks.scenario import HijackKind
from repro.bgp.engine import ConvergedBatch, RouteState, RoutingEngine
from repro.bgp.policy import PolicyConfig
from repro.bgp.kernel import BACKENDS, compile_view, gather_flat, resolve_backend
from repro.defense.deployment import Defense
from repro.oracle.invariants import check_cache_coherence
from repro.topology.asgraph import ASGraph
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.relationships import Relationship
from repro.topology.view import RoutingView


class TestBackendKnob:
    def test_backends_tuple(self):
        assert BACKENDS == ("reference", "array")

    def test_resolve_accepts_known(self):
        for backend in BACKENDS:
            assert resolve_backend(backend) == backend

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown convergence backend"):
            resolve_backend("gpu")

    def test_engine_rejects_unknown_backend(self, mini_view):
        with pytest.raises(ValueError, match="unknown convergence backend"):
            RoutingEngine(mini_view, backend="vectorised")

    def test_engine_records_backend(self, mini_view):
        assert RoutingEngine(mini_view).backend == "reference"
        assert RoutingEngine(mini_view, backend="array").backend == "array"


class TestCompileMemo:
    def test_same_view_compiles_once(self, mini_graph, monkeypatch):
        """The engine keeps its compiled view: a lab's sweeps, batches and
        with_defense clones never compile the view a second time."""
        compiled = []
        compile_once = kernel.compile_view

        def counting_compile(view):
            compiled.append(view)
            return compile_once(view)

        monkeypatch.setattr(kernel, "compile_view", counting_compile)
        lab = HijackLab(mini_graph, seed=1, backend="array", batch_origins=4)
        lab.sweep_target(50)
        lab.with_defense(Defense(stub_filter=True)).sweep_target(50)
        assert len(compiled) == 1 and compiled[0] is lab.view


class TestCsrLayout:
    @pytest.fixture
    def compiled(self, mini_view):
        return compile_view(mini_view)

    def _slices(self, indptr, indices, node):
        return indices[indptr[node] : indptr[node + 1]].tolist()

    def test_per_kind_csr_matches_view_adjacency(self, mini_view, compiled):
        for node in range(len(mini_view)):
            assert (
                self._slices(compiled.customer_indptr, compiled.customer_indices, node)
                == list(mini_view.customers[node])
            )
            assert (
                self._slices(compiled.peer_indptr, compiled.peer_indices, node)
                == list(mini_view.peers[node])
            )
            assert (
                self._slices(compiled.provider_indptr, compiled.provider_indices, node)
                == list(mini_view.providers[node])
            )

    def test_fused_export_csr_is_providers_peers_customers(self, mini_view, compiled):
        """The fused adjacency concatenates providers|peers|customers per
        node with parallel kind codes 0|1|2 — the layout the hot-path
        single-gather export depends on."""
        for node in range(len(mini_view)):
            lo, hi = compiled.export_indptr[node], compiled.export_indptr[node + 1]
            targets = compiled.export_indices[lo:hi].tolist()
            kinds = compiled.export_kinds[lo:hi].tolist()
            providers = list(mini_view.providers[node])
            peers = list(mini_view.peers[node])
            customers = list(mini_view.customers[node])
            assert targets == providers + peers + customers
            assert kinds == [0] * len(providers) + [1] * len(peers) + [2] * len(
                customers
            )

    def test_tier1_flags_mirror_view(self, mini_view, compiled):
        assert compiled.is_tier1.tolist() == list(mini_view.is_tier1)

    def test_gather_concatenates_in_node_order(self, compiled):
        """The flat gather walks cells in order across columns: each
        cell's CSR slice, its node as sender, its column base alongside."""
        n = compiled.size
        cells = np.array([2, n + 0, 2 * n + 2, 2], dtype=np.int64)
        positions, senders, colbases = gather_flat(compiled.customer_indptr, cells, n)
        expected_positions = []
        expected_senders = []
        expected_colbases = []
        for cell in cells.tolist():
            col, node = divmod(cell, n)
            lo, hi = compiled.customer_indptr[node], compiled.customer_indptr[node + 1]
            expected_positions.extend(range(int(lo), int(hi)))
            expected_senders.extend([node] * int(hi - lo))
            expected_colbases.extend([col * n] * int(hi - lo))
        assert expected_positions  # the mini topology's node 2 has customers
        assert positions.tolist() == expected_positions
        assert senders.tolist() == expected_senders
        assert colbases.tolist() == expected_colbases


class TestLazyExports:
    def test_kernel_names_reachable_via_package(self):
        assert bgp.resolve_backend("array") == "array"
        assert bgp.compile_view is compile_view

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="has no attribute"):
            bgp.no_such_name


class TestMiniConvergence:
    """Cheap end-to-end smoke on the hand-verifiable topology — the heavy
    equivalence coverage lives in the property battery."""

    @pytest.mark.parametrize("filter_first_hop", [False, True])
    def test_blocked_and_filtered_paths_match_reference(
        self, mini_view, filter_first_hop
    ):
        reference = RoutingEngine(mini_view)
        array = RoutingEngine(mini_view, backend="array")
        origin = mini_view.node_of(50)  # a stub, so the filter engages
        blocked = frozenset({mini_view.node_of(40)})
        ref = reference.converge(
            origin, blocked=blocked, filter_first_hop_providers=filter_first_hop
        )
        arr = array.converge(
            origin, blocked=blocked, filter_first_hop_providers=filter_first_hop
        )
        assert ref.checksum() == arr.checksum()


class TestBatchedKernel:
    """Unit coverage of ``converge_batch``/``converge_delta_batch`` on the
    hand-verifiable topology — the heavy batched coverage lives in
    ``tests/property/test_batched_equivalence.py``."""

    def test_fresh_batch_columns_match_scalar_converges(self, mini_view):
        engine = RoutingEngine(mini_view, backend="array")
        origins = [0, 2, 0, len(mini_view) - 1]  # duplicates allowed
        batch = engine.converge_batch(origins)
        assert [state.origin for state in batch] == origins
        for origin, state in zip(origins, batch):
            assert state.checksum() == engine.converge(origin).checksum()

    def test_per_column_knobs_apply_independently(self, mini_view):
        engine = RoutingEngine(mini_view, backend="array")
        stub = mini_view.node_of(50)
        blocked = frozenset({mini_view.node_of(40)})
        origins = [stub, stub, stub]
        batch = engine.converge_batch(
            origins,
            blocked_sets=[frozenset(), blocked, frozenset()],
            first_hop_flags=[False, False, True],
            origin_lengths=[0, 0, 2],
        )
        assert batch[0].checksum() == engine.converge(stub).checksum()
        assert batch[1].checksum() == engine.converge(stub, blocked=blocked).checksum()
        assert (
            batch[2].checksum()
            == engine.converge(
                stub, filter_first_hop_providers=True, origin_length=2
            ).checksum()
        )
        assert batch[0].checksum() != batch[1].checksum()

    def test_shared_base_batch_leaves_base_untouched(self, mini_view):
        engine = RoutingEngine(mini_view, backend="array")
        base = engine.converge(0)
        base_sum = base.checksum()
        attackers = [2, 3]
        batch = engine.converge_batch(attackers, base=base)
        for attacker, state in zip(attackers, batch):
            assert (
                state.checksum()
                == engine.converge(attacker, base=base).checksum()
            )
        assert base.checksum() == base_sum

    def test_reference_backend_falls_back_to_scalar_loop(self, mini_view):
        reference = RoutingEngine(mini_view)
        array = RoutingEngine(mini_view, backend="array")
        origins = [0, 1, 2]
        ref_batch = reference.converge_batch(origins)
        arr_batch = array.converge_batch(origins)
        assert [s.checksum() for s in ref_batch] == [
            s.checksum() for s in arr_batch
        ]

    def test_mismatched_parameter_lengths_raise(self, mini_view):
        engine = RoutingEngine(mini_view, backend="array")
        with pytest.raises(ValueError, match="match the origin count"):
            engine.converge_batch([0, 1], blocked_sets=[frozenset()])
        with pytest.raises(ValueError, match="match the origin count"):
            engine.converge_batch([0, 1], first_hop_flags=[True])

    def test_delta_batch_journals_revert_to_base(self, mini_view):
        engine = RoutingEngine(mini_view, backend="array")
        reference = RoutingEngine(mini_view)
        base = engine.converge(0)
        origins = [2, 3]
        states = [base.copy_for(origin) for origin in origins]
        before = [state.checksum() for state in states]
        deltas = engine.converge_delta_batch(states, origins)
        for index, origin in enumerate(origins):
            scalar_state = base.copy_for(origin)
            scalar_delta = reference.converge_delta(scalar_state, origin)
            assert deltas[index].journal == scalar_delta.journal
            assert states[index].checksum() == scalar_state.checksum()
        for index, delta in enumerate(deltas):
            delta.revert(states[index])
        assert [state.checksum() for state in states] == before

    def test_delta_batch_rejects_frozen_or_mismatched_states(self, mini_view):
        engine = RoutingEngine(mini_view, backend="array")
        base = engine.converge(0)
        with pytest.raises(ValueError):
            engine.converge_delta_batch([base.copy_for(2)], [2, 3])
        frozen = base.copy_for(2).freeze()
        with pytest.raises(ValueError):
            engine.converge_delta_batch([frozen], [2])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "frozen_at, count, origins, knobs",
        [
            pytest.param((0,), 1, [2], {}, id="frozen"),
            pytest.param((), 2, [2, 3, 4], {}, id="more-origins-than-states"),
            pytest.param((), 2, [2, 3], {"origin_lengths": [0]}, id="short-knob-list"),
            pytest.param((0,), 2, [2, 3], {}, id="frozen-first"),
            pytest.param((1,), 2, [2, 3], {}, id="frozen-last"),
        ],
    )
    def test_delta_batch_refuses_before_any_pass(
        self, mini_view, backend, frozen_at, count, origins, knobs
    ):
        """A refused ``converge_delta_batch`` mutates no state, on either
        backend, wherever in the list the frozen state sits."""
        engine = RoutingEngine(mini_view, backend=backend)
        base = engine.converge(0)
        states = [base.copy_for(0) for _ in range(count)]
        for index in frozen_at:
            states[index].freeze()
        before = [state.checksum() for state in states]
        with pytest.raises(ValueError):
            engine.converge_delta_batch(states, origins, **knobs)
        assert [state.checksum() for state in states] == before


def _view(tier1: tuple[int, ...], customer_links: tuple[tuple[int, int], ...],
          peer_links: tuple[tuple[int, int], ...] = ()) -> RoutingView:
    """A hand-placed topology: ``(provider, customer)`` and peer pairs."""
    graph = ASGraph()
    for asn in sorted({asn for link in customer_links + peer_links for asn in link}):
        graph.add_as(asn, tier1=asn in tier1)
    for provider, customer in customer_links:
        graph.add_relationship(provider, customer, Relationship.CUSTOMER)
    for left, right in peer_links:
        graph.add_relationship(left, right, Relationship.PEER)
    return RoutingView.from_graph(graph)


class TestTestFirstInstall:
    """The array kernel tests a bucket's candidates against their cells
    before it picks each cell's first candidate; these pin the two cases
    that order must not change."""

    def test_cell_offered_twice_in_one_bucket_installs_the_first_sender(self):
        # Origin 1 has customers 2 and 3; both are providers of 4, so 4
        # hears two (length 2, PROVIDER) routes in one bucket: from 2,
        # then from 3 (push order follows the adjacency order).
        view = _view((1,), ((1, 2), (1, 3), (2, 4), (3, 4)))
        node = view.node_of
        assert view.customers[node(1)] == (node(2), node(3))
        journals = []
        for backend in ("reference", "array"):
            engine = RoutingEngine(view, backend=backend)
            state = engine.converge_batch([node(1)])[0]
            assert int(state.parent[node(4)]) == node(2)
            assert int(state.length[node(4)]) == 2
            empty = RouteState.empty(len(view), node(1))
            journals.append(engine.converge_delta(empty, node(1)).journal)
        assert journals[0] == journals[1]
        assert journals[1][0::5].count(node(4)) == 1  # one install, not two

    @pytest.mark.parametrize("tier1_shortest", [True, False])
    def test_tier1_cell_is_won_on_length_alone(self, tier1_shortest):
        # Tier-1s 1 and 2 peer. The target 5 sits three customer hops
        # under 1 (5 < 4 < 3 < 1); the attacker 6 is a customer of 2, so
        # 1 hears the attack as a PEER route of length 2 against its
        # CUSTOMER route of length 3. Only the tier-1 rule takes it.
        view = _view(
            (1, 2), ((1, 3), (3, 4), (4, 5), (2, 6)), peer_links=((1, 2),)
        )
        node = view.node_of
        policy = PolicyConfig(tier1_shortest_path=tier1_shortest)
        expected = {node(2), node(1)} if tier1_shortest else {node(2)}
        for backend in ("reference", "array"):
            engine = RoutingEngine(view, policy, backend=backend)
            base = engine.converge(node(5))
            assert int(base.cls[node(1)]) == 1 and int(base.length[node(1)]) == 3
            batch = engine.converge_batch([node(6)], base=base)
            assert batch.holders(0).tolist() == sorted(expected)
            state = batch[0]
            assert int(state.length[node(1)]) == (2 if tier1_shortest else 3)
            assert state.holders_of(node(6)) == frozenset(expected)


class TestHoldersRead:
    """A sweep reads only who took each attacker's route: on the array
    backend it never builds a column's :class:`RouteState`."""

    def test_array_sweep_never_builds_a_column_state(self, monkeypatch):
        graph = generate_topology(GeneratorConfig.scaled(400, seed=3))
        reference = HijackLab(graph, seed=3)
        array = HijackLab(graph, seed=3, backend="array", batch_origins=16)
        target = reference.attacker_pool(transit_only=True)[2]
        attackers = [asn for asn in sorted(graph.asns()) if asn != target][::9]
        scenarios = [
            array.build_scenario(target, attacker, kind=kind)
            for attacker in attackers
            for kind in (HijackKind.ORIGIN, HijackKind.SUBPREFIX)
        ]
        expected = reference.run_scenarios(scenarios)

        def refuse(self, index):
            raise AssertionError("a sweep built a column state")

        monkeypatch.setattr(ConvergedBatch, "__getitem__", refuse)
        outcomes = array.run_scenarios(scenarios)
        assert len(scenarios) > 16  # several fused batches per base
        assert [
            (o.polluted_nodes.tolist(), o.pollution_count, o.address_fraction)
            for o in outcomes
        ] == [
            (o.polluted_nodes.tolist(), o.pollution_count, o.address_fraction)
            for o in expected
        ]
        with pytest.raises(AssertionError, match="built a column state"):
            array.engine.converge_batch([0])[0]


class TestArrayBackedState:
    """The array kernel hands back numpy-backed states; ``RouteState`` is
    the only place that knows, and everything observable — checksums,
    freezing, scalar queries — behaves as on the list-backed states."""

    def test_array_kernels_write_back_ndarrays(self, mini_view):
        engine = RoutingEngine(mini_view, backend="array")
        base = engine.converge(0)
        states = [base, engine.converge(2, base=base), *engine.converge_batch([1, 2])]
        delta_state = base.copy_for(3)
        engine.converge_delta(delta_state, 3)
        for state in (*states, delta_state):
            for array in (state.cls, state.length, state.parent, state.origin_of):
                assert isinstance(array, np.ndarray)
        assert isinstance(RoutingEngine(mini_view).converge(0).cls, list)

    def test_checksum_is_representation_independent(self, mini_view):
        array_state = RoutingEngine(mini_view, backend="array").converge(0)
        as_lists = RouteState(
            array_state.origin,
            *(a.tolist() for a in (array_state.cls, array_state.length,
                                   array_state.parent, array_state.origin_of)),
        )
        assert array_state.checksum() == as_lists.checksum()
        assert array_state.checksum() == RoutingEngine(mini_view).converge(0).checksum()

    def test_frozen_ndarray_state_rejects_writes(self, mini_view):
        engine = RoutingEngine(mini_view, backend="array")
        frozen = engine.converge(0).freeze().freeze()
        assert frozen.is_frozen
        with pytest.raises(ValueError, match="read-only"):
            frozen.origin_of[3] = 99
        copy = frozen.copy_for(2)
        assert not copy.is_frozen
        copy.cls[0] = 7  # the copy is writable again, and its own
        assert frozen.cls[0] == 0

    def test_kernel_pass_over_frozen_baseline_raises(self, mini_view):
        """An in-place pass writes results back by assigning a state's
        arrays, which read-only arrays cannot stop, so the engine refuses
        a frozen state — at K=1 and with the frozen state as column 2 of
        2, before touching any column."""
        engine = RoutingEngine(mini_view, backend="array")
        baseline = ConvergenceCache(engine).baseline(0)
        before = baseline.checksum()
        bystander = baseline.copy_for(3)
        with pytest.raises(ValueError, match="mutable"):
            engine.converge_delta(baseline, 2)
        for states, origins in (
            ([baseline], [2]), ([bystander, baseline], [3, 2]), ([baseline] * 2, [2, 3]),
        ):
            with pytest.raises(ValueError, match="mutable"):
                engine.converge_delta_batch(states, origins)
        assert bystander.checksum() == baseline.copy_for(3).checksum()
        assert baseline.is_frozen and baseline.checksum() == before

    def test_hijack_passes_leave_cached_baseline_untouched(self, mini_view):
        # Validating, so the cache records the insert checksum.
        engine = RoutingEngine(mini_view, backend="array", validate=True)
        cache = ConvergenceCache(engine)
        baseline = cache.baseline(0)
        [(_origin, (_state, inserted))] = cache.entries()
        engine.hijack(0, 5, legitimate=baseline)
        engine.converge(7, base=baseline)
        engine.converge_batch([4, 6], base=baseline)
        assert baseline.checksum() == inserted
        check_cache_coherence(cache)

    def test_scalar_queries_return_python_values(self, mini_view):
        state = RoutingEngine(mini_view, backend="array").converge(
            mini_view.node_of(50)
        )
        reference = RoutingEngine(mini_view).converge(mini_view.node_of(50))
        node = mini_view.node_of(60)
        path = state.path_from(node)
        assert path == reference.path_from(node) and len(path) > 1
        assert all(type(hop) is int for hop in path)
        holders = state.holders_of(state.origin)
        assert holders == reference.holders_of(state.origin)
        assert all(type(holder) is int for holder in holders)
        assert state.has_route(node) is True
        assert state.cls[node] == reference.cls[node]
        json.dumps({"path": path, "holders": sorted(holders)})
