"""The compiled routing view: sibling collapse + index-based adjacency.

The paper's simulator handles sibling ASes with "a community string to
create the equivalent of one AS out of multiple sibling ASes". We implement
that equivalence structurally: before any routing computation, sibling
groups are collapsed into single routing nodes (union–find over sibling
links), so both engines see a graph with only customer/peer/provider edges.

The view also re-indexes ASNs to dense integers and stores adjacency as
flat lists — the representation both the reference flood and the fast
engine iterate over millions of times during attacker sweeps.
A view is immutable; rebuild it after editing the :class:`ASGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from repro.topology.asgraph import ASGraph
from repro.topology.classify import find_tier1

if TYPE_CHECKING:  # pragma: no cover - numpy is imported lazily below
    from numpy import ndarray

__all__ = ["RoutingView"]


class _UnionFind:
    """Union–find over the ASes that have siblings; any other AS is its
    own root without an entry."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, item: int) -> int:
        parent = self._parent
        root = item
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(item, item) != root:  # path compression
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic: smaller ASN becomes the root.
            if ra > rb:
                ra, rb = rb, ra
            self._parent[rb] = ra


# Relationship bits merged per routing-node pair; a pair whose members
# disagree has more than one bit set.
_PROVIDER, _CUSTOMER, _PEER = 1, 2, 4


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
        adjacency = list(graph.adjacency())
        uf = _UnionFind()
        for asn, *_, siblings in adjacency:
            for sibling in siblings:
                uf.union(asn, sibling)

        # A group's root is its smallest ASN, so walking ASNs in ascending
        # order numbers the nodes in root order and meets every root
        # before the rest of its group.
        node_of: dict[int, int] = {}
        members: list[list[int]] = []
        for asn, *_ in adjacency:
            root = uf.find(asn)
            if root == asn:
                node_of[asn] = len(members)
                members.append([asn])
            else:
                node = node_of[asn] = node_of[root]
                members[node].append(asn)
        n = len(members)

        # Merge relationship edges between groups as bits per node pair.
        # When members disagree (one member buys from group B while
        # another sells to it), the merged pair is treated as peers — the
        # only symmetric resolution.
        kinds: list[dict[int, int]] = [{} for _ in range(n)]
        for asn, provider_asns, customer_asns, peer_asns, _siblings in adjacency:
            node = node_of[asn]
            seen = kinds[node]
            for bit, neighbors in (
                (_PROVIDER, provider_asns), (_CUSTOMER, customer_asns), (_PEER, peer_asns)
            ):
                for neighbor in neighbors:
                    other = node_of[neighbor]
                    if other != node:
                        seen[other] = seen.get(other, 0) | bit

        customers: list[tuple[int, ...]] = []
        peers: list[tuple[int, ...]] = []
        providers: list[tuple[int, ...]] = []
        for seen in kinds:
            node_customers: list[int] = []
            node_peers: list[int] = []
            node_providers: list[int] = []
            for other in sorted(seen):
                mask = seen[other]
                if mask == _CUSTOMER:
                    node_customers.append(other)
                elif mask == _PROVIDER:
                    node_providers.append(other)
                else:
                    node_peers.append(other)
            customers.append(tuple(node_customers))
            peers.append(tuple(node_peers))
            providers.append(tuple(node_providers))

        flags = [False] * n
        for asn in tier1:
            node = node_of.get(asn)
            if node is not None:
                flags[node] = True
        return cls(
            customers=tuple(customers),
            peers=tuple(peers),
            providers=tuple(providers),
            members=tuple(tuple(group) for group in members),
            is_tier1=tuple(flags),
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
