"""The packed route: one int per node on a list-backed ``RouteState``.

A list-backed state holds each node's ``(cls, length, parent,
origin_of)`` as one Python int, and the reference kernel reads, stores,
journals and rewinds a route in that one slot. These tests pin the
encoding at its extremes (and that a value it cannot hold raises
instead of wrapping), the guards around it (a frozen state refuses
writes; pickling, copying and cache hits keep the checksum), and a
ledger differential that drives both backends through announce,
withdraw and flap moves with blocking, the stub filter and forged-path
padding, checking every step against the cold chain, the other backend
and the checksum each rewind must restore.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import ConvergenceCache
from repro.bgp.engine import MAX_NODE, UNREACHABLE, RouteState, RoutingEngine
from repro.stream.incremental import AnnounceEntry, PrefixLedger, full_converge
from repro.topology.relationships import RouteClass
from repro.util.lines import _MAX_LINE_BYTES
from tests.strategies import announce_withdraw_sequences, example_budget
from tests.route_cells import set_route, state_of

NO_CLASS = 9
PAPER_SCALE = 42_697
# A claimed path on one trace line spends at least a digit and a
# separator per hop, so no line can claim more hops than this.
LONGEST_PADDING = _MAX_LINE_BYTES // 2

EXTREMES = [
    pytest.param((NO_CLASS, UNREACHABLE, -1, -1), id="empty"),
    pytest.param((int(RouteClass.ORIGIN), 0, -1, 0), id="origin"),
    pytest.param((int(RouteClass.ORIGIN), LONGEST_PADDING, -1, 7), id="longest-padding"),
    pytest.param(
        (int(RouteClass.PROVIDER), LONGEST_PADDING + PAPER_SCALE, PAPER_SCALE - 1,
         PAPER_SCALE - 2),
        id="paper-scale-last-node",
    ),
    pytest.param((int(RouteClass.CUSTOMER), UNREACHABLE - 1, MAX_NODE, MAX_NODE),
                 id="widest-fields"),
]


class TestEncoding:
    @pytest.mark.parametrize("route", EXTREMES)
    def test_round_trip(self, route):
        state = RouteState.empty(PAPER_SCALE, origin=0)
        node = PAPER_SCALE - 1
        cls, length, parent, origin_of = route
        set_route(state, node, cls=cls, length=length, parent=parent, origin_of=origin_of)
        assert state.route(node) == route
        assert state.origin_at(node) == origin_of
        assert state.has_route(node) == (cls != NO_CLASS)
        assert (state.cls[node], state.length[node], state.parent[node],
                state.origin_of[node]) == route
        # Neighbouring cells are untouched: no field spills into another.
        assert state.route(node - 1) == (NO_CLASS, UNREACHABLE, -1, -1)
        packed = state_of(0, *([field] for field in route))
        assert packed.route(0) == route
        arrays = state_of(
            0, *(np.array([field], dtype=np.int64) for field in route)
        )
        assert arrays.checksum() == packed.checksum()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cls", NO_CLASS + 1),
            ("cls", -1),
            ("length", UNREACHABLE + 1),
            ("length", -1),
            ("parent", MAX_NODE + 1),
            ("parent", -2),
            ("origin_of", MAX_NODE + 1),
            ("origin_of", -2),
        ],
    )
    def test_a_value_the_layout_cannot_hold_raises(self, field, value):
        state = RouteState.empty(3, origin=0)
        before = state.checksum()
        with pytest.raises(ValueError, match="packed layout"):
            set_route(state, 1, **{field: value})
        with pytest.raises(ValueError, match="packed layout"):
            state_of(0, *(
                [value] if name == field else [default]
                for name, default in zip(
                    ("cls", "length", "parent", "origin_of"),
                    (NO_CLASS, UNREACHABLE, -1, -1),
                )
            ))
        assert state.checksum() == before

    def test_routes_at_gathers_one_packing_on_both_backends(self):
        columns = list(zip(*(param.values[0] for param in EXTREMES)))
        packed = state_of(0, *(list(column) for column in columns))
        arrays = state_of(0, *(np.array(column, dtype=np.int64) for column in columns))
        nodes = [4, 0, 2, 0, 3, 1]
        gathered = packed.routes_at(nodes)
        assert gathered == arrays.routes_at(nodes)
        assert all(type(route) is int for route in gathered)
        assert RouteState.origins_in(gathered) == [packed.origin_at(node) for node in nodes]

    def test_an_empty_state_has_the_checksum_of_empty_arrays(self):
        arrays = state_of(0, *(np.zeros(0, dtype=np.int64) for _ in range(4)))
        assert RouteState.empty(0, origin=0).checksum() == arrays.checksum()

    def test_a_state_wider_than_the_node_field_raises(self):
        with pytest.raises(ValueError, match="at most"):
            RouteState.empty(MAX_NODE + 2, origin=0)

    def test_padding_past_the_length_field_raises(self, mini_view):
        engine = RoutingEngine(mini_view)
        state = engine.converge(0)
        before = state.checksum()
        for padding in (-1, UNREACHABLE - 1):
            with pytest.raises(ValueError, match="padding"):
                engine.converge_delta(state, 2, origin_length=padding)
            with pytest.raises(ValueError, match="padding"):
                engine.converge(2, base=state, origin_length=padding)
            assert state.checksum() == before

    def test_longest_trace_padding_matches_the_array_backend(self, mini_view):
        attacker = mini_view.node_of(60)
        states = []
        for backend in ("reference", "array"):
            engine = RoutingEngine(mini_view, backend=backend)
            base = engine.converge(mini_view.node_of(50))
            states.append(
                engine.converge(attacker, base=base, origin_length=LONGEST_PADDING)
            )
        packed, arrays = states
        assert packed.routes is not None and arrays.arrays is not None
        assert packed.route(attacker) == (
            int(RouteClass.ORIGIN), LONGEST_PADDING, -1, attacker
        )
        assert packed.checksum() == arrays.checksum()


class TestGuards:
    @pytest.fixture
    def state(self, mini_view):
        return RoutingEngine(mini_view).converge(mini_view.node_of(50))

    def test_frozen_packed_state_refuses_writes(self, mini_view, state):
        engine = RoutingEngine(mini_view)
        delta = engine.converge_delta(state, mini_view.node_of(60))
        state.freeze()
        assert state.is_frozen and type(state.routes) is tuple
        before = state.checksum()
        with pytest.raises(TypeError):
            set_route(state, 0, length=3)
        with pytest.raises(ValueError, match="mutable"):
            engine.converge_delta(state, mini_view.node_of(70))
        with pytest.raises(ValueError, match="frozen"):
            delta.revert(state)
        with pytest.raises(TypeError):
            state.cls[0] = 0  # a decoded column is a read-only copy
        assert state.checksum() == before

    @pytest.mark.parametrize("frozen", [False, True], ids=["mutable", "frozen"])
    def test_pickle_and_copy_keep_the_checksum(self, state, frozen):
        if frozen:
            state.freeze()
        checksum = state.checksum()
        for clone in (
            pickle.loads(pickle.dumps(state)),
            copy.copy(state),
            copy.deepcopy(state),
        ):
            assert clone.checksum() == checksum
            assert clone.is_frozen == frozen
        thawed = state.copy_for(state.origin)
        assert not thawed.is_frozen and thawed.checksum() == checksum
        set_route(thawed, 0, length=1)
        assert state.checksum() == checksum

    def test_a_state_holds_exactly_one_representation(self):
        arrays = tuple(np.zeros(1, dtype=np.int64) for _ in range(4))
        for kwargs in ({}, {"routes": [0], "arrays": arrays}):
            with pytest.raises(ValueError, match="exactly one"):
                RouteState(0, **kwargs)

    def test_a_journal_reverts_only_its_own_backend(self, mini_view):
        deltas, states = [], []
        for backend in ("reference", "array"):
            engine = RoutingEngine(mini_view, backend=backend)
            state = engine.converge(mini_view.node_of(50))
            deltas.append(engine.converge_delta(state, mini_view.node_of(60)))
            states.append(state)
        packed, arrays = states
        checksums = [state.checksum() for state in states]
        with pytest.raises(ValueError, match="list-backed"):
            deltas[0].revert(arrays)
        with pytest.raises(ValueError, match="ndarray-backed"):
            deltas[1].revert(packed)
        assert [state.checksum() for state in states] == checksums
        assert packed.routes is not None and arrays.arrays is not None

    @pytest.mark.parametrize("validate", [False, True], ids=["plain", "validating"])
    def test_cache_hits_keep_the_checksum(self, mini_view, validate):
        engine = RoutingEngine(mini_view, validate=validate)
        cache = ConvergenceCache(engine)
        origin = mini_view.node_of(50)
        baseline = cache.baseline(origin)
        checksum = RoutingEngine(mini_view).converge(origin).checksum()
        assert baseline.checksum() == checksum
        engine.hijack(origin, mini_view.node_of(60), legitimate=baseline)
        assert cache.baseline(origin) is baseline
        assert baseline.checksum() == checksum


@st.composite
def padded_ledger_moves(draw):
    """A view plus ledger moves: announces with blocked sets, the stub
    filter and a forged-path padding (fixed per origin, so a flap's
    re-announce revives), newest and interior withdraws."""
    view, ops = draw(announce_withdraw_sequences(max_size=20, max_events=12))
    paddings: dict[int, int] = {}
    moves = []
    for kind, origin, blocked, first_hop in ops:
        if kind == "announce" and origin not in paddings:
            paddings[origin] = draw(st.sampled_from((0, 0, 1, 3, LONGEST_PADDING)))
        moves.append((kind, origin, blocked, first_hop, paddings.get(origin, 0)))
    return view, moves


@settings(max_examples=example_budget(60), deadline=None)
@given(padded_ledger_moves())
def test_ledger_differential_on_both_backends(case):
    """After every move each backend's ledger equals the cold chain and
    the other backend, and a withdraw restores the checksum the ledger
    had when it last held the same announcements."""
    view, moves = case
    engines = [RoutingEngine(view, backend=backend) for backend in ("reference", "array")]
    ledgers = [PrefixLedger(engine) for engine in engines]
    seen: dict[tuple[AnnounceEntry, ...], str] = {}
    for kind, origin, blocked, first_hop, padding in moves:
        for ledger in ledgers:
            if kind == "announce":
                path = (*range(1000, 1000 + padding), origin) if padding else None
                assert ledger.announce(
                    origin, blocked=blocked, first_hop_filtered=first_hop, path=path
                )
            else:
                assert ledger.withdraw(origin)
        reference, array = ledgers
        entries = reference.entries
        assert array.entries == entries
        checksum = reference.checksum()
        assert array.checksum() == checksum
        cold = full_converge(engines[0], entries)
        assert checksum == (cold.checksum() if cold is not None else None)
        if kind == "withdraw" and entries in seen:
            assert checksum == seen[entries]
        seen[entries] = checksum
        if reference.state is not None:
            assert reference.state.routes is not None
            assert array.state.arrays is not None


@settings(max_examples=example_budget(60), deadline=None)
@given(padded_ledger_moves())
def test_stacked_rewinds_restore_every_prior_checksum(case):
    """The raw journal: stack every announce as a ``converge_delta`` on
    both backends, then revert newest-first; each rewind lands on the
    checksum before its pass, and the decoded records agree."""
    view, moves = case
    announces = [move for move in moves if move[0] == "announce"]
    for backend in ("reference", "array"):
        engine = RoutingEngine(view, backend=backend)
        state = RouteState.empty(len(view), announces[0][1])
        stack = []
        for _kind, origin, blocked, first_hop, padding in announces:
            before = state.checksum()
            delta = engine.converge_delta(
                state, origin, blocked=blocked, filter_first_hop_providers=first_hop,
                origin_length=padding,
            )
            stack.append((delta, before))
        if backend == "reference":
            records = [delta.records() for delta, _ in stack]
        else:
            assert [delta.records() for delta, _ in stack] == records
        while stack:
            delta, before = stack.pop()
            delta.revert(state)
            assert state.checksum() == before
