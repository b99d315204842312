"""The AS-level topology graph.

:class:`ASGraph` stores autonomous systems and their typed business
relationships (provider/customer, peer, sibling) plus per-AS metadata the
experiments need: region tags (Section VII's New-Zealand-style regional
analysis) and an optional explicit tier-1 marking from the generator.

The structure is mutable because Section VII's self-interest playbook edits
it: *re-homing* a vulnerable AS to a lower-depth provider and *multi-homing*
it to additional providers are first-class operations here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterator

from repro.topology.relationships import Relationship

__all__ = ["ASGraph", "TopologyError"]


# Module-level aliases: an enum member read through its class costs an
# attribute lookup per use, which the per-link paths below pay ~10^5 times.
_CUSTOMER = Relationship.CUSTOMER
_PROVIDER = Relationship.PROVIDER
_PEER = Relationship.PEER
_SIBLING = Relationship.SIBLING


class TopologyError(ValueError):
    """Raised on inconsistent topology edits (unknown AS, conflicting link)."""


# The neighbour set of a kind an AS has no link of. Most of a CAIDA-scale
# graph's ASes are stubs with no customers, peers or siblings, so every
# record starts with this one shared empty per kind and gets a real set
# on its first link of that kind.
_NO_NEIGHBORS: frozenset[int] = frozenset()


def _grown(bucket: AbstractSet[int], asn: int) -> AbstractSet[int]:
    """*bucket* with *asn* added: in place if it is a real set, else a new one."""
    if isinstance(bucket, set):
        bucket.add(asn)
        return bucket
    return {asn}


@dataclass(slots=True)
class _ASRecord:
    providers: AbstractSet[int] = _NO_NEIGHBORS
    customers: AbstractSet[int] = _NO_NEIGHBORS
    peers: AbstractSet[int] = _NO_NEIGHBORS
    siblings: AbstractSet[int] = _NO_NEIGHBORS
    region: str | None = None
    tier1: bool = False

    def neighbor_sets(self) -> tuple[AbstractSet[int], ...]:
        return (self.providers, self.customers, self.peers, self.siblings)

    def relationship_to(self, neighbor: int) -> Relationship | None:
        if neighbor in self.customers:
            return _CUSTOMER
        if neighbor in self.providers:
            return _PROVIDER
        if neighbor in self.peers:
            return _PEER
        if neighbor in self.siblings:
            return _SIBLING
        return None


class ASGraph:
    """Mutable AS topology with relationship-typed adjacency."""

    def __init__(self) -> None:
        self._nodes: dict[int, _ASRecord] = {}

    # -- nodes ---------------------------------------------------------------

    def add_as(self, asn: int, *, region: str | None = None, tier1: bool = False) -> None:
        """Add an AS (idempotent; metadata is updated if already present)."""
        record = self._nodes.get(asn)
        if record is None:
            self._nodes[asn] = _ASRecord(region=region, tier1=tier1)
        else:
            if region is not None:
                record.region = region
            record.tier1 = record.tier1 or tier1

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def asns(self) -> list[int]:
        """All ASNs in ascending order."""
        return sorted(self._nodes)

    def region_of(self, asn: int) -> str | None:
        return self._record(asn).region

    def set_region(self, asn: int, region: str | None) -> None:
        self._record(asn).region = region

    def marked_tier1(self) -> frozenset[int]:
        return frozenset(asn for asn, rec in self._nodes.items() if rec.tier1)

    def regions(self) -> dict[str, list[int]]:
        """Region name → sorted member ASNs (unregioned ASes omitted)."""
        result: dict[str, list[int]] = {}
        for asn, record in self._nodes.items():
            if record.region is not None:
                result.setdefault(record.region, []).append(asn)
        for members in result.values():
            members.sort()
        return result

    def _record(self, asn: int) -> _ASRecord:
        try:
            return self._nodes[asn]
        except KeyError:
            raise TopologyError(f"unknown AS{asn}") from None

    # -- edges ---------------------------------------------------------------

    def add_relationship(self, asn: int, neighbor: int, relationship: Relationship) -> None:
        """Record that *neighbor* is a ``relationship`` of *asn*.

        ``add_relationship(a, b, CUSTOMER)`` means *b buys transit from a*.
        Both directions are stored. Adding a second, conflicting
        relationship between the same pair raises :class:`TopologyError`.
        """
        if asn == neighbor:
            raise TopologyError(f"self-link on AS{asn}")
        self._link(asn, self._record(asn), neighbor, self._record(neighbor), relationship)

    def add_link(self, asn: int, neighbor: int, relationship: Relationship) -> None:
        """``add_as`` both ends, then ``add_relationship``.

        The per-record step of a topology file loader: each end is
        looked up once, and an AS seen for the first time is added with
        no region and no tier-1 mark.
        """
        nodes = self._nodes
        record = nodes.get(asn)
        if record is None:
            record = nodes[asn] = _ASRecord()
        other = nodes.get(neighbor)
        if other is None:
            other = nodes[neighbor] = _ASRecord()
        if asn == neighbor:
            raise TopologyError(f"self-link on AS{asn}")
        self._link(asn, record, neighbor, other, relationship)

    @staticmethod
    def _link(
        asn: int, record: _ASRecord, neighbor: int, other: _ASRecord,
        relationship: Relationship,
    ) -> None:
        existing = record.relationship_to(neighbor)
        if existing is relationship:
            return
        if existing is not None:
            raise TopologyError(
                f"AS{asn}–AS{neighbor} already {existing.value}, "
                f"refusing to also mark {relationship.value}"
            )
        if relationship is _CUSTOMER:
            record.customers = _grown(record.customers, neighbor)
            other.providers = _grown(other.providers, asn)
        elif relationship is _PROVIDER:
            record.providers = _grown(record.providers, neighbor)
            other.customers = _grown(other.customers, asn)
        elif relationship is _PEER:
            record.peers = _grown(record.peers, neighbor)
            other.peers = _grown(other.peers, asn)
        else:
            record.siblings = _grown(record.siblings, neighbor)
            other.siblings = _grown(other.siblings, asn)

    def remove_relationship(self, asn: int, neighbor: int) -> None:
        """Remove whatever link exists between the pair (error if none)."""
        existing = self.relationship(asn, neighbor)
        if existing is None:
            raise TopologyError(f"no link AS{asn}–AS{neighbor}")
        record = self._record(asn)
        other = self._record(neighbor)
        for bucket in record.neighbor_sets():
            if isinstance(bucket, set):
                bucket.discard(neighbor)
        for bucket in other.neighbor_sets():
            if isinstance(bucket, set):
                bucket.discard(asn)

    def relationship(self, asn: int, neighbor: int) -> Relationship | None:
        """The relationship *neighbor* has to *asn*, or None."""
        return self._record(asn).relationship_to(neighbor)

    # -- neighbor queries ------------------------------------------------------

    def providers(self, asn: int) -> frozenset[int]:
        return frozenset(self._record(asn).providers)

    def customers(self, asn: int) -> frozenset[int]:
        return frozenset(self._record(asn).customers)

    def peers(self, asn: int) -> frozenset[int]:
        return frozenset(self._record(asn).peers)

    def neighbors(self, asn: int) -> frozenset[int]:
        record = self._record(asn)
        return frozenset().union(*record.neighbor_sets())

    def degree(self, asn: int) -> int:
        record = self._record(asn)
        return (
            len(record.providers) + len(record.customers)
            + len(record.peers) + len(record.siblings)
        )

    def adjacency(
        self,
    ) -> Iterator[tuple[int, AbstractSet[int], AbstractSet[int], AbstractSet[int], AbstractSet[int]]]:
        """``(asn, providers, customers, peers, siblings)`` per AS, ascending.

        The sets are the graph's own, not copies, so a whole-graph pass
        (compiling a :class:`~repro.topology.view.RoutingView`) pays no
        per-AS ``frozenset``: read them and drop them, never mutate them
        or keep them past the next edit.
        """
        nodes = self._nodes
        for asn in sorted(nodes):
            record = nodes[asn]
            yield asn, record.providers, record.customers, record.peers, record.siblings

    def edge_count(self) -> int:
        """Number of undirected relationship links."""
        return sum(self.degree(asn) for asn in self._nodes) // 2

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """Each link once, as ``(asn, neighbor, relationship-of-neighbor)``.

        Provider/customer links are reported from the provider side
        (``relationship`` = CUSTOMER); symmetric links from the lower ASN.
        """
        for asn in sorted(self._nodes):
            record = self._nodes[asn]
            for customer in sorted(record.customers):
                yield asn, customer, Relationship.CUSTOMER
            for peer in sorted(record.peers):
                if asn < peer:
                    yield asn, peer, Relationship.PEER
            for sibling in sorted(record.siblings):
                if asn < sibling:
                    yield asn, sibling, Relationship.SIBLING

    # -- mutation used by the self-interest playbook ---------------------------

    def rehome(self, asn: int, old_provider: int, new_provider: int) -> None:
        """Replace one provider link: the Section VII re-homing action."""
        if self.relationship(asn, old_provider) is not Relationship.PROVIDER:
            raise TopologyError(f"AS{old_provider} is not a provider of AS{asn}")
        self.remove_relationship(asn, old_provider)
        self.add_relationship(new_provider, asn, Relationship.CUSTOMER)

    # -- derived views -----------------------------------------------------------

    def copy(self) -> "ASGraph":
        """An independent graph; a kind with no neighbours stays the shared empty."""
        clone = ASGraph()
        for asn, record in self._nodes.items():
            providers, customers, peers, siblings = (
                set(bucket) if bucket else _NO_NEIGHBORS for bucket in record.neighbor_sets()
            )
            clone._nodes[asn] = _ASRecord(
                providers, customers, peers, siblings, record.region, record.tier1
            )
        return clone

    # -- consistency -----------------------------------------------------------

    def validate(self) -> None:
        """Check adjacency symmetry; raises :class:`TopologyError` on damage."""
        for asn, record in self._nodes.items():
            for provider in record.providers:
                if asn not in self._record(provider).customers:
                    raise TopologyError(f"asymmetric p2c AS{provider}→AS{asn}")
            for customer in record.customers:
                if asn not in self._record(customer).providers:
                    raise TopologyError(f"asymmetric p2c AS{asn}→AS{customer}")
            for peer in record.peers:
                if asn not in self._record(peer).peers:
                    raise TopologyError(f"asymmetric peering AS{asn}–AS{peer}")
            for sibling in record.siblings:
                if asn not in self._record(sibling).siblings:
                    raise TopologyError(f"asymmetric sibling AS{asn}–AS{sibling}")
            buckets = record.neighbor_sets()
            for i in range(len(buckets)):
                for j in range(i + 1, len(buckets)):
                    overlap = buckets[i] & buckets[j]
                    if overlap:
                        raise TopologyError(
                            f"AS{asn} has conflicting relationships with {sorted(overlap)}"
                        )
