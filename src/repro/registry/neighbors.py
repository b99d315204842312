"""Published neighbor sets: ARTEMIS-style first-hop verification data.

RPKI origin validation cannot catch a **type-1** hijack — the attacker
claims the legitimate origin at the end of a forged path, so the
(prefix, origin) pair validates. ARTEMIS closes the gap with one extra
published artifact: each origin's set of *actual* BGP neighbors. A
claimed path whose last hop ``(neighbor, origin)`` names an AS the
origin never sessions with is provably forged, no matter how valid the
claimed origin is.

:class:`NeighborRegistry` is that artifact in this model — the path
analogue of :class:`~repro.registry.roa.RoaTable`. Like ROAs, it is an
*opt-in* publication: origins absent from the registry yield no verdict
(``None``-ish semantics — :meth:`first_hop_forged` returns ``False``
when it cannot prove anything), mirroring RFC 6483's NotFound.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.topology.asgraph import ASGraph

__all__ = ["NeighborRegistry"]


class NeighborRegistry:
    """Mapping from origin ASN to its declared neighbor ASNs."""

    def __init__(self, declared: Mapping[int, Iterable[int]] | None = None) -> None:
        self._declared: dict[int, frozenset[int]] = {
            int(origin): frozenset(neighbors)
            for origin, neighbors in (declared or {}).items()
        }

    @classmethod
    def from_graph(cls, graph: ASGraph) -> "NeighborRegistry":
        """Publish the true neighbor set of every AS in *graph*.

        Declared neighbors include siblings — a sibling's announcement of
        the shared origin is legitimate, not a forged first hop.
        """
        return cls({asn: graph.neighbors(asn) for asn in graph.asns()})

    def __len__(self) -> int:
        return len(self._declared)

    def __contains__(self, origin_asn: int) -> bool:
        return origin_asn in self._declared

    def first_hop_forged(self, claimed_path: tuple[int, ...]) -> bool:
        """Is the path's last hop provably impossible?

        *claimed_path* carries the claimed origin **last**. Returns
        ``True`` only when the origin has published its neighbors and
        the AS adjacent to it in the claim is not one of them; a path of
        length 1 (the origin alone) or an undeclared origin proves
        nothing and returns ``False``.
        """
        if len(claimed_path) < 2:
            return False
        origin = claimed_path[-1]
        declared = self._declared.get(origin)
        if declared is None:
            return False
        return claimed_path[-2] not in declared
