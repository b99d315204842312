"""The compiled routing view: sibling collapse + index-based adjacency.

The paper's simulator handles sibling ASes with "a community string to
create the equivalent of one AS out of multiple sibling ASes". We implement
that equivalence structurally: before any routing computation, sibling
groups are collapsed into single routing nodes (union–find over sibling
links), so both engines see a graph with only customer/peer/provider edges.

The view also re-indexes ASNs to dense integers and stores adjacency as
flat lists — the representation both the message simulator and the fast
three-phase engine iterate over millions of times during attacker sweeps.
A view is immutable; rebuild it after editing the :class:`ASGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.topology.asgraph import ASGraph
from repro.topology.classify import find_tier1
from repro.topology.relationships import Relationship

if TYPE_CHECKING:  # pragma: no cover - numpy is imported lazily below
    from numpy import ndarray

__all__ = ["RoutingView"]


class _UnionFind:
    def __init__(self, items: Iterable[int]) -> None:
        self._parent = {item: item for item in items}

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic: smaller ASN becomes the root.
            if ra > rb:
                ra, rb = rb, ra
            self._parent[rb] = ra


@dataclass(frozen=True)
class RoutingView:
    """Immutable, index-compiled topology used by the routing engines.

    Node *i* represents one routing entity (an AS or a collapsed sibling
    group). ``customers[i]`` / ``peers[i]`` / ``providers[i]`` hold neighbor
    node indices; ``members[i]`` the original ASNs; ``is_tier1[i]`` whether
    any member is tier-1 (tier-1 nodes use shortest-path-first preference).
    """

    customers: tuple[tuple[int, ...], ...]
    peers: tuple[tuple[int, ...], ...]
    providers: tuple[tuple[int, ...], ...]
    members: tuple[tuple[int, ...], ...]
    is_tier1: tuple[bool, ...]
    _node_of: dict[int, int]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_graph(
        cls, graph: ASGraph, *, tier1: frozenset[int] | None = None
    ) -> "RoutingView":
        tier1 = tier1 if tier1 is not None else find_tier1(graph)
        asns = graph.asns()
        uf = _UnionFind(asns)
        for asn in asns:
            for sibling in graph.siblings(asn):
                uf.union(asn, sibling)

        roots = sorted({uf.find(asn) for asn in asns})
        index_of_root = {root: index for index, root in enumerate(roots)}
        node_of = {asn: index_of_root[uf.find(asn)] for asn in asns}

        n = len(roots)
        members: list[list[int]] = [[] for _ in range(n)]
        for asn in asns:
            members[node_of[asn]].append(asn)

        # Merge relationship edges between groups. When members disagree
        # (one member buys from group B while another sells to it), the
        # merged pair is treated as peers — the only symmetric resolution.
        kinds: list[dict[int, set[Relationship]]] = [dict() for _ in range(n)]
        for asn in asns:
            node = node_of[asn]
            for provider in graph.providers(asn):
                other = node_of[provider]
                if other != node:
                    kinds[node].setdefault(other, set()).add(Relationship.PROVIDER)
            for customer in graph.customers(asn):
                other = node_of[customer]
                if other != node:
                    kinds[node].setdefault(other, set()).add(Relationship.CUSTOMER)
            for peer in graph.peers(asn):
                other = node_of[peer]
                if other != node:
                    kinds[node].setdefault(other, set()).add(Relationship.PEER)

        customers: list[tuple[int, ...]] = []
        peers: list[tuple[int, ...]] = []
        providers: list[tuple[int, ...]] = []
        for node in range(n):
            node_customers: list[int] = []
            node_peers: list[int] = []
            node_providers: list[int] = []
            for other, seen in sorted(kinds[node].items()):
                if len(seen) > 1:
                    node_peers.append(other)
                elif Relationship.CUSTOMER in seen:
                    node_customers.append(other)
                elif Relationship.PROVIDER in seen:
                    node_providers.append(other)
                else:
                    node_peers.append(other)
            customers.append(tuple(node_customers))
            peers.append(tuple(node_peers))
            providers.append(tuple(node_providers))

        is_tier1 = tuple(
            any(asn in tier1 for asn in members[node]) for node in range(n)
        )
        return cls(
            customers=tuple(customers),
            peers=tuple(peers),
            providers=tuple(providers),
            members=tuple(tuple(group) for group in members),
            is_tier1=is_tier1,
            _node_of=node_of,
        )

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def node_of(self, asn: int) -> int:
        """The routing node representing *asn* (KeyError if unknown)."""
        return self._node_of[asn]

    def has_asn(self, asn: int) -> bool:
        return asn in self._node_of

    def asn_of(self, node: int) -> int:
        """The representative (lowest) ASN of a routing node."""
        return self.members[node][0]

    def member_count(self, node: int) -> int:
        return len(self.members[node])

    @cached_property
    def representative_asns(self) -> "ndarray":
        """``asn_of(node)`` for every node, as an int64 array.

        With :attr:`sibling_nodes` this is :meth:`expand` as an array
        gather: ``representative_asns[nodes]`` plus the extra members of
        the few collapsed sibling groups among *nodes*.
        """
        import numpy as np  # lazy: only attack scoring needs it

        return np.fromiter(
            (group[0] for group in self.members), dtype=np.int64, count=len(self)
        )

    @cached_property
    def sibling_nodes(self) -> "ndarray":
        """Nodes standing for more than one ASN (collapsed sibling groups)."""
        import numpy as np

        return np.array(
            [node for node, group in enumerate(self.members) if len(group) > 1],
            dtype=np.int64,
        )

    def expand(self, nodes: Iterable[int]) -> frozenset[int]:
        """Original ASNs represented by the given routing nodes."""
        result: set[int] = set()
        for node in nodes:
            result.update(self.members[node])
        return frozenset(result)

    def nodes_of(self, asns: Iterable[int]) -> frozenset[int]:
        return frozenset(self._node_of[asn] for asn in asns)

    def neighbor_nodes(self, node: int) -> Sequence[int]:
        return (*self.customers[node], *self.peers[node], *self.providers[node])
