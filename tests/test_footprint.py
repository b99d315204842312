"""What a paper-scale lab holds, pinned: lazy neighbour sets, interned
ASNs, slotted prefixes and int8/int32 array states.

Each is a representation change with no observable effect besides
memory, so every test here checks both halves: the smaller form is
really there, and the behaviour is the one the plain form had
(docs/performance.md, "Footprint at CAIDA scale").
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bgp.engine import UNREACHABLE, RoutingEngine
from repro.prefixes.prefix import Prefix
from repro.topology import asgraph as asgraph_module
from repro.topology.asgraph import ASGraph, TopologyError
from repro.topology.caida import CaidaFormatError, load_caida_mmap, loads_caida
from repro.topology.relationships import Relationship
from repro.topology.view import RoutingView
from tests.conftest import build_mini_graph
from tests.strategies import example_budget

# -- lazy neighbour sets ------------------------------------------------------

_KINDS = ("providers", "customers", "peers", "siblings")
# The kind *asn* files *neighbor* under when *neighbor* is a ``relationship``
# of *asn*, and the kind *neighbor* files *asn* under.
_SIDES = {
    Relationship.CUSTOMER: ("customers", "providers"),
    Relationship.PROVIDER: ("providers", "customers"),
    Relationship.PEER: ("peers", "peers"),
    Relationship.SIBLING: ("siblings", "siblings"),
}
_RELATIONSHIP_OF_KIND = {
    "customers": Relationship.CUSTOMER,
    "providers": Relationship.PROVIDER,
    "peers": Relationship.PEER,
    "siblings": Relationship.SIBLING,
}
_ASNS = st.integers(1, 7)


class LazyNeighbourSets(RuleBasedStateMachine):
    """``ASGraph`` against a plain four-sets-per-AS model.

    Every edit is mirrored on the model, including the edits that raise
    (``add_link`` adds both ends before refusing a self-link; ``rehome``
    removes the old link before adding the new one). After every step
    each query must agree with the model, and every kind an AS never had
    a neighbour of must still be the graph's one shared empty set.
    """

    def __init__(self) -> None:
        super().__init__()
        self.graph = ASGraph()
        self.model: dict[int, dict[str, set[int]]] = {}
        # Per AS, the kinds that held a neighbour since the graph was built.
        self.ever: dict[int, set[str]] = {}

    def _relationship(self, asn: int, neighbor: int) -> Relationship | None:
        for kind, members in self.model[asn].items():
            if neighbor in members:
                return _RELATIONSHIP_OF_KIND[kind]
        return None

    def _model_link(self, asn: int, neighbor: int, relationship: Relationship) -> bool:
        """Mirror a link; False where the graph must raise instead."""
        if asn == neighbor or asn not in self.model or neighbor not in self.model:
            return False
        existing = self._relationship(asn, neighbor)
        if existing is not None:
            return existing is relationship
        mine, theirs = _SIDES[relationship]
        self.model[asn][mine].add(neighbor)
        self.model[neighbor][theirs].add(asn)
        self.ever[asn].add(mine)
        self.ever[neighbor].add(theirs)
        return True

    def _add_model_as(self, asn: int) -> None:
        if asn not in self.model:
            self.model[asn] = {kind: set() for kind in _KINDS}
            self.ever[asn] = set()

    @staticmethod
    def _expect(allowed: bool, edit, *args) -> None:
        if allowed:
            edit(*args)
        else:
            with pytest.raises(TopologyError):
                edit(*args)

    @rule(asn=_ASNS)
    def add_as(self, asn):
        self.graph.add_as(asn)
        self._add_model_as(asn)

    @rule(asn=_ASNS, neighbor=_ASNS, relationship=st.sampled_from(Relationship))
    def add_relationship(self, asn, neighbor, relationship):
        allowed = self._model_link(asn, neighbor, relationship)
        self._expect(allowed, self.graph.add_relationship, asn, neighbor, relationship)

    @rule(asn=_ASNS, neighbor=_ASNS, relationship=st.sampled_from(Relationship))
    def add_link(self, asn, neighbor, relationship):
        self._add_model_as(asn)
        self._add_model_as(neighbor)
        allowed = self._model_link(asn, neighbor, relationship)
        self._expect(allowed, self.graph.add_link, asn, neighbor, relationship)

    def _model_unlink(self, asn: int, neighbor: int) -> bool:
        if asn not in self.model or neighbor not in self.model:
            return False
        if self._relationship(asn, neighbor) is None:
            return False
        for members in self.model[asn].values():
            members.discard(neighbor)
        for members in self.model[neighbor].values():
            members.discard(asn)
        return True

    @rule(asn=_ASNS, neighbor=_ASNS)
    def remove_relationship(self, asn, neighbor):
        allowed = self._model_unlink(asn, neighbor)
        self._expect(allowed, self.graph.remove_relationship, asn, neighbor)

    @rule(asn=_ASNS, old=_ASNS, new=_ASNS)
    def rehome(self, asn, old, new):
        allowed = (
            asn in self.model
            and old in self.model
            and self._relationship(asn, old) is Relationship.PROVIDER
        )
        if allowed:
            self._model_unlink(asn, old)
            allowed = self._model_link(new, asn, Relationship.CUSTOMER)
        self._expect(allowed, self.graph.rehome, asn, old, new)

    @rule()
    def copy(self):
        original = self.graph
        self.graph = original.copy()
        # The copy shares no real set with the original: edits stay apart.
        for asn, record in original._nodes.items():
            twin = self.graph._nodes[asn]
            for kind in _KINDS:
                mine, theirs = getattr(record, kind), getattr(twin, kind)
                assert mine == theirs
                assert mine is not theirs or theirs is asgraph_module._NO_NEIGHBORS
        self.ever = {
            asn: {kind for kind, members in kinds.items() if members}
            for asn, kinds in self.model.items()
        }

    @invariant()
    def agrees_with_model(self):
        graph, model = self.graph, self.model
        assert graph.asns() == sorted(model)
        for asn, kinds in model.items():
            assert graph.providers(asn) == kinds["providers"]
            assert graph.customers(asn) == kinds["customers"]
            assert graph.peers(asn) == kinds["peers"]
            assert graph.degree(asn) == sum(map(len, kinds.values()))
            for neighbor in model:
                assert graph.relationship(asn, neighbor) is self._relationship(asn, neighbor)
        expected = sorted(
            (asn, neighbor, _RELATIONSHIP_OF_KIND[kind])
            for asn, kinds in model.items()
            for kind in ("customers", "peers", "siblings")
            for neighbor in kinds[kind]
            if kind == "customers" or asn < neighbor
        )
        assert sorted(graph.edges(), key=lambda edge: edge[:2]) == expected
        graph.validate()

    @invariant()
    def untouched_kinds_share_one_empty(self):
        for asn, record in self.graph._nodes.items():
            for kind in _KINDS:
                if kind not in self.ever[asn]:
                    assert getattr(record, kind) is asgraph_module._NO_NEIGHBORS


LazyNeighbourSets.TestCase.settings = settings(
    max_examples=example_budget(60), stateful_step_count=25
)
TestLazyNeighbourSets = LazyNeighbourSets.TestCase


# -- interned ASNs ------------------------------------------------------------

_SHARED = """# every ASN below 256 is a cached small int; these are not
65000|70000|-1
65000|80000|0
0070000|80000|-1
80000|90000|1|bgp
"""


def _occurrences(graph: ASGraph) -> dict[int, set[int]]:
    """ASN -> ids of every int object the graph holds for it."""
    seen: dict[int, set[int]] = {}
    for asn, *kinds in graph.adjacency():
        seen.setdefault(asn, set()).add(id(asn))
        for members in kinds:
            for neighbor in members:
                seen.setdefault(neighbor, set()).add(id(neighbor))
    return seen


@pytest.mark.parametrize("source", ["text", "file"])
def test_each_asn_is_one_int_object(source, tmp_path):
    if source == "text":
        graph = loads_caida(_SHARED)
    else:
        path = tmp_path / "as-rel.txt"
        path.write_text(_SHARED, encoding="ascii")
        graph = load_caida_mmap(path)
    occurrences = _occurrences(graph)
    assert sorted(occurrences) == [65000, 70000, 80000, 90000]
    assert all(len(ids) == 1 for ids in occurrences.values()), occurrences
    assert graph.relationship(70000, 80000) is Relationship.CUSTOMER  # "0070000"


@pytest.mark.parametrize(
    "text, message",
    [
        ("65000|x1|0\n", "line 3: ASN 'x1' is not a plain number"),
        ("x1|65000|0\n", "line 3: ASN 'x1' is not a plain number"),
        ("65000|4294967296|0\n", "line 3: ASN 4294967296 outside 1..2^32-1"),
        ("65000|70000\n", "line 3: expected 3 or 4 '|'-separated fields, got 2"),
        ("65000|70000|9\n", "line 3: unknown relationship code 9"),
        ("65000|70000|z\n", "line 3: non-numeric field"),
        ("65000|70000|0\n",
         "line 3: AS65000–AS70000 already customer, refusing to also mark peer"),
    ],
    ids=["bad-second-asn", "bad-first-asn", "out-of-range", "field-count",
         "unknown-code", "non-numeric-code", "conflict"],
)
def test_errors_after_interned_asns_keep_their_text(text, message):
    """A line whose good ASNs were parsed before fails as it always did."""
    with pytest.raises(CaidaFormatError) as caught:
        loads_caida("65000|70000|-1\n# comment\n" + text)
    assert str(caught.value) == message


# -- slotted Prefix -----------------------------------------------------------


def test_prefix_has_slots_not_a_dict():
    """``tests/test_prefix.py::TestCachedHash`` pins ``fields()``, the hash
    through pickle/copy/deepcopy and the freeze; pickling by the oldest
    protocol, which slots alone would break, is added here."""
    prefix = Prefix.parse("203.0.113.0/24")
    assert not hasattr(prefix, "__dict__")
    twin = pickle.loads(pickle.dumps(prefix, protocol=0))
    assert twin == prefix and hash(twin) == hash((prefix.network, 24))
    with pytest.raises(dataclasses.FrozenInstanceError):
        prefix._hash = 0  # a slot, still frozen


# -- array-state dtypes -------------------------------------------------------

_DTYPES = (np.int8, np.int32, np.int32, np.int32)


def _dtypes(state) -> tuple:
    return tuple(array.dtype.type for array in state.arrays)


@pytest.fixture
def island_view() -> RoutingView:
    """The mini topology plus an AS no announcement can reach."""
    graph = build_mini_graph()
    graph.add_as(999)
    return RoutingView.from_graph(graph)


def test_array_states_are_int8_and_int32(island_view):
    view = island_view
    engine = RoutingEngine(view, backend="array")
    reference = RoutingEngine(view)
    target, attacker, island = view.node_of(50), view.node_of(60), view.node_of(999)

    baseline = engine.converge(target)
    assert _dtypes(baseline) == _DTYPES
    assert baseline.length[island] == UNREACHABLE and not baseline.has_route(island)
    assert baseline.checksum() == reference.converge(target).checksum()

    batch = engine.converge_batch([attacker, view.node_of(70)], base=baseline)
    for index in range(len(batch)):
        assert _dtypes(batch[index]) == _DTYPES
        assert batch[index].length[island] == UNREACHABLE

    state = baseline.copy_for(target)
    before = state.checksum()
    delta = engine.converge_delta(state, attacker)
    assert _dtypes(state) == _DTYPES
    assert state.checksum() == reference.converge(attacker, base=baseline).checksum()
    delta.revert(state)
    assert _dtypes(state) == _DTYPES
    assert state.checksum() == before
    assert state.length[island] == UNREACHABLE
