"""Detector probe sets: where a hijack-detection service peers.

"IP hijack detectors are only as good as the quantity, topological
diversity, and geographical dispersion of the vantage points (probes) they
have available" (Section VI). A probe is an AS whose *selected* routes the
detector sees, as BGPmon-style monitors do — so a probe observes an attack
exactly when the probe AS itself accepts the bogus route.

The three configurations of Fig. 7:

1. the 17 tier-1 ASes,
2. a BGPmon-like set of 24 ASes (the paper used CSU BGPmon's actual
   peers; we sample a deterministic mix with the same flavour — a few
   high-degree transits plus mid/low-degree ASes spread across regions),
3. the 62 highest-degree ASes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.asgraph import ASGraph
from repro.topology.classify import find_tier1
from repro.util.rng import make_rng

__all__ = [
    "ProbeSet",
    "tier1_probes",
    "bgpmon_like_probes",
    "top_degree_probes",
]


@dataclass(frozen=True)
class ProbeSet:
    """A named set of monitor-feeding ASes."""

    name: str
    asns: frozenset[int]

    def __len__(self) -> int:
        return len(self.asns)

    def triggered_by(self, polluted_asns: frozenset[int]) -> frozenset[int]:
        """Probes that accepted the bogus route during an attack."""
        return self.asns & polluted_asns


def tier1_probes(graph: ASGraph) -> ProbeSet:
    """Fig. 7 case 1: peer with every tier-1 AS."""
    tier1 = find_tier1(graph)
    return ProbeSet(f"tier1-{len(tier1)}", tier1)


def bgpmon_like_probes(
    graph: ASGraph, *, count: int = 24, seed: int = 0
) -> ProbeSet:
    """Fig. 7 case 2: an ad-hoc mix like CSU BGPmon's 24 peers.

    Deterministically picks ~1/6 of the probes from the high-degree core
    and the rest across the degree tail, spreading over regions — the
    organically-grown peering mix whose blind spots Section VI measures.
    """
    rng = make_rng(seed, "bgpmon-probes", count)
    ranked = sorted(graph.asns(), key=lambda asn: (-graph.degree(asn), asn))
    core_quota = max(1, count // 6)
    chosen: list[int] = ranked[:core_quota]
    tail = [asn for asn in ranked[core_quota:] if graph.degree(asn) >= 2]
    # Round-robin the regions so the set is geographically dispersed.
    by_region: dict[str | None, list[int]] = {}
    for asn in tail:
        by_region.setdefault(graph.region_of(asn), []).append(asn)
    region_order = sorted(by_region, key=lambda region: (region is None, region))
    for members in by_region.values():
        rng.shuffle(members)
    index = 0
    while len(chosen) < count and any(by_region.values()):
        region = region_order[index % len(region_order)]
        members = by_region[region]
        if members:
            chosen.append(members.pop())
        index += 1
    return ProbeSet(f"bgpmon-like-{len(chosen)}", frozenset(chosen))


def top_degree_probes(graph: ASGraph, *, count: int = 62) -> ProbeSet:
    """Fig. 7 case 3: the *count* highest-degree ASes."""
    ranked = sorted(graph.asns(), key=lambda asn: (-graph.degree(asn), asn))
    return ProbeSet(f"top-degree-{count}", frozenset(ranked[:count]))
