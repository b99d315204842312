"""The topology build contract: what a lab boots from must not move.

``HijackLab`` construction compiles a :class:`RoutingView`, its CSR form
and an :class:`AddressPlan`. Every field of those is pinned here by
digest on two topologies — the default 4,270-AS generator output and a
scale-fixture build with sibling groups — so a faster build cannot
change a routing outcome or an address-space share. Small hand-built
inputs check the rules the digests stand on: sibling members that
disagree merge to peers, the CSR arrays equal a plain loop over the
view, and a built :class:`AddressPlan` answers
``origin_of`` by containment, never for a prefix covering two blocks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bgp.kernel import compile_view
from repro.defense.strategies import top_degree_deployment
from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix
from repro.topology.asgraph import ASGraph
from repro.topology.generator import GeneratorConfig, default_address_plan, generate_topology
from repro.topology.relationships import Relationship
from repro.topology.scalefixture import ScaleFixtureConfig, generate_scale_fixture
from repro.topology.view import RoutingView


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:32]


TOPOLOGIES = {
    "default": lambda: generate_topology(GeneratorConfig()),
    "scale": lambda: generate_scale_fixture(ScaleFixtureConfig.scaled(3000, seed=5)),
}

# (ASes, routing nodes, collapsed sibling groups)
SIZES = {"default": (4270, 4252, 18), "scale": (3000, 2976, 23)}

VIEW_DIGESTS = {
    "default": {
        "customers": "393e0d7b1f5029c1bc02462e9bd46567",
        "peers": "83599ca9bd829572a427114989afa160",
        "providers": "47de5df9a86faf472fa5e1ec74aa5b2c",
        "members": "55699d3fa931e43aaddde66fc470db23",
        "is_tier1": "334c058e5501e994ac6bde2a7953b117",
        "_node_of": "f97a6247f3319a0317a6a6a3db2e7aea",
    },
    "scale": {
        "customers": "26a39c5960d0422441195eccd7dbadd6",
        "peers": "a5066ac0856d882311aadefb2ad90df6",
        "providers": "f4ce7e6d9bd77f91e555aa09eb953eeb",
        "members": "c8f7b83a07d6f9dc8f483ff6ab2f9382",
        "is_tier1": "ce0e44fe9ddd65f330659e98748c92b7",
        "_node_of": "56d57bfd6615c452135d4fbb36281fbc",
    },
}

PLAN_DIGESTS = {
    "default": {
        "items": "c0834668ebcdb6ea2bf509d451b1f11f",
        "prefixes_of": "80cc7aaf8c9e33e69bd35fba1d5a0351",
        "space": "c8798a5445344f4d015824c0314ff3f3",
        "total": 265743872,
    },
    "scale": {
        "items": "b6e09966f79d35c93c582bf5026ff8ec",
        "prefixes_of": "b8a1321b066dab7438493aec02becbc8",
        "space": "26955cb168aaad2f18d5728e58a633a3",
        "total": 22827776,
    },
}


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def built(request):
    graph = TOPOLOGIES[request.param]()
    return request.param, graph, RoutingView.from_graph(graph)


class TestPinnedBuild:
    def test_sizes(self, built):
        name, graph, view = built
        groups = sum(len(group) > 1 for group in view.members)
        assert (len(graph), len(view), groups) == SIZES[name]

    def test_view_fields(self, built):
        name, _graph, view = built
        assert {
            "customers": _digest(view.customers),
            "peers": _digest(view.peers),
            "providers": _digest(view.providers),
            "members": _digest(view.members),
            "is_tier1": _digest(view.is_tier1),
            "_node_of": _digest(sorted(view._node_of.items())),
        } == VIEW_DIGESTS[name]

    def test_address_plan(self, built):
        name, graph, _view = built
        plan = default_address_plan(graph)
        asns = graph.asns()
        assert {
            "items": _digest([(str(prefix), asn) for prefix, asn in plan.items()]),
            "prefixes_of": _digest([[str(p) for p in plan.prefixes_of(asn)] for asn in asns]),
            "space": _digest([plan.address_space_of(asn) for asn in asns]),
            "total": plan.total_allocated(),
        } == PLAN_DIGESTS[name]

    def test_compiled_arrays_equal_a_loop_over_the_view(self, built):
        _name, _graph, view = built
        compiled = compile_view(view)
        for kind in ("customer", "peer", "provider"):
            indptr, indices = _loop_csr(getattr(view, f"{kind}s"))
            np.testing.assert_array_equal(getattr(compiled, f"{kind}_indptr"), indptr)
            np.testing.assert_array_equal(getattr(compiled, f"{kind}_indices"), indices)
        export = [p + e + c for p, e, c in zip(view.providers, view.peers, view.customers)]
        indptr, indices = _loop_csr(export)
        kinds = [
            kind
            for p, e, c in zip(view.providers, view.peers, view.customers)
            for kind, count in ((0, len(p)), (1, len(e)), (2, len(c)))
            for _ in range(count)
        ]
        np.testing.assert_array_equal(compiled.export_indptr, indptr)
        np.testing.assert_array_equal(compiled.export_indices, indices)
        np.testing.assert_array_equal(compiled.export_kinds, np.array(kinds, dtype=np.int8))
        assert compiled.export_indices.dtype == np.int32
        assert compiled.export_kinds.dtype == np.int8
        assert compiled.export_indptr.dtype == np.int64

    def test_top_degree_ranking(self, built):
        _name, graph, _view = built
        ranked = sorted(graph.asns(), key=lambda asn: (-graph.degree(asn), asn))
        for count in (0, 1, 62, 299, len(graph), len(graph) + 5):
            assert top_degree_deployment(graph, count).deployers == frozenset(ranked[:count])


def _loop_csr(adjacency):
    """The CSR arrays built one node at a time."""
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    for node, neighbors in enumerate(adjacency):
        indptr[node + 1] = indptr[node] + len(neighbors)
    indices = np.array([n for neighbors in adjacency for n in neighbors], dtype=np.int32)
    return indptr, indices


class TestSiblingMerge:
    def test_disagreeing_members_merge_to_peers(self):
        """30 buys transit from 10 while its sibling 31 sells it to 10:
        the group {30, 31} and 10 become peers. 40, a customer of both
        siblings, stays a customer of the group; 31's peer 50 stays a peer."""
        graph = ASGraph()
        for asn in (1, 10, 30, 31, 40, 50):
            graph.add_as(asn, tier1=asn == 1)
        graph.add_relationship(1, 10, Relationship.CUSTOMER)
        graph.add_relationship(10, 30, Relationship.CUSTOMER)
        graph.add_relationship(31, 10, Relationship.CUSTOMER)
        graph.add_relationship(30, 31, Relationship.SIBLING)
        graph.add_relationship(30, 40, Relationship.CUSTOMER)
        graph.add_relationship(31, 40, Relationship.CUSTOMER)
        graph.add_relationship(31, 50, Relationship.PEER)
        view = RoutingView.from_graph(graph)
        # Nodes in root order: 1, 10, {30, 31}, 40, 50.
        assert view.members == ((1,), (10,), (30, 31), (40,), (50,))
        assert view._node_of == {1: 0, 10: 1, 30: 2, 31: 2, 40: 3, 50: 4}
        assert view.customers == ((1,), (), (3,), (), ())
        assert view.providers == ((), (0,), (), (2,), ())
        assert view.peers == ((), (2,), (1, 4), (), (2,))
        assert view.is_tier1 == (True, False, False, False, False)

    def test_chained_siblings_collapse_under_the_smallest_asn(self):
        graph = ASGraph()
        for asn in (5, 7, 9, 20):
            graph.add_as(asn)
        graph.add_relationship(9, 7, Relationship.SIBLING)
        graph.add_relationship(7, 20, Relationship.SIBLING)
        graph.add_relationship(5, 20, Relationship.CUSTOMER)
        view = RoutingView.from_graph(graph, tier1=frozenset({20, 999}))
        assert view.members == ((5,), (7, 9, 20))
        assert view.customers == ((1,), ())
        assert view.providers == ((), (0,))
        assert view.is_tier1 == (False, True)


def _p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestAssign:
    def test_origin_of(self):
        plan = AddressPlan.build({1: 1.0, 2: 1.0}, extra_prefix_probability=0.0)
        assert [(str(p), asn) for p, asn in plan.items()] == [
            ("1.0.0.0/10", 1), ("1.64.0.0/10", 2),
        ]
        assert plan.origin_of(_p("1.0.0.128/25")) == 1
        assert plan.origin_of(_p("1.64.0.0/10")) == 2
        assert plan.origin_of(_p("1.0.0.0/9")) is None  # covers both blocks
        assert plan.origin_of(_p("1.128.0.0/10")) is None
        assert plan.origin_of(_p("9.0.0.0/8")) is None
