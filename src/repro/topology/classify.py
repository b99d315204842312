"""Topology classification: tier-1 inference, depth, reach, customer cones.

These are the metrics the paper's vulnerability analysis keys on:

* **tier-1** — a provider-free AS in the top peering clique;
* **depth** — "the number of hops to the nearest tier-1 AS", which Section
  IV *redefines* after the Fig. 3 experiments to "the number of hops from an
  AS to its nearest tier-1 **or tier-2** provider" (tier-2s behave like
  tier-1s for vulnerability purposes);
* **reach** — "the number of ASes that can be independently reached from an
  AS without the aid of peer ASes", i.e. the size of its customer cone;
* **transit vs stub** — attacks in the optimistic scenario originate only
  from the transit ASes (paper: 6,318 of 42,697 = 14.7%).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.topology.asgraph import ASGraph

__all__ = [
    "find_tier1",
    "find_tier2",
    "depth_to_tier1",
    "effective_depth",
    "customer_cone",
    "reach",
    "transit_asns",
    "stub_asns",
    "TopologySummary",
    "summarize",
]


def find_tier1(graph: ASGraph) -> frozenset[int]:
    """The tier-1 set: explicit markings if present, else inferred.

    Inference: among provider-free ASes, greedily grow a peering clique
    starting from the highest-degree candidate, admitting candidates in
    degree order that peer with every member so far. This is the standard
    "top clique" heuristic; on the synthetic topology it recovers exactly
    the generator's marked tier-1 mesh.
    """
    marked = graph.marked_tier1()
    if marked:
        return marked
    candidates = [asn for asn in graph.asns() if not graph.providers(asn)]
    if not candidates:
        return frozenset()
    candidates.sort(key=lambda asn: (-graph.degree(asn), asn))
    clique: list[int] = [candidates[0]]
    for asn in candidates[1:]:
        peers = graph.peers(asn)
        if all(member in peers for member in clique):
            clique.append(asn)
    return frozenset(clique)


def find_tier2(
    graph: ASGraph,
    tier1: frozenset[int] | None = None,
    *,
    min_degree: int | None = None,
) -> frozenset[int]:
    """Large direct customers of tier-1 ASes.

    The paper's redefinition of depth treats "large tier-2 providers" as
    depth anchors. A tier-2 here is a transit AS that (a) is a direct
    customer of at least one tier-1 and (b) has degree at least
    ``min_degree``. The default threshold is adaptive: one quarter of the
    maximum non-tier-1 degree, floored at 5, which on both the synthetic
    and real topologies selects the big regional carriers and nothing else.
    """
    tier1 = tier1 if tier1 is not None else find_tier1(graph)
    non_tier1_degrees = [graph.degree(a) for a in graph.asns() if a not in tier1]
    if not non_tier1_degrees:
        return frozenset()
    if min_degree is None:
        min_degree = max(5, max(non_tier1_degrees) // 4)
    result = set()
    for asn in graph.asns():
        if asn in tier1:
            continue
        if not graph.customers(asn):
            continue
        if graph.degree(asn) < min_degree:
            continue
        if graph.providers(asn) & tier1:
            result.add(asn)
    return frozenset(result)


def _bfs_depth(graph: ASGraph, anchors: Iterable[int]) -> dict[int, int]:
    """Hop distance from the anchor set, descending provider→customer links.

    Depth counts *provider hops*: an AS's depth is one more than the
    shallowest of its providers (anchors are depth 0). ASes unreachable via
    customer links from any anchor get no entry.
    """
    depth: dict[int, int] = {}
    queue: deque[int] = deque()
    for anchor in anchors:
        if anchor in graph:
            depth[anchor] = 0
            queue.append(anchor)
    while queue:
        asn = queue.popleft()
        for customer in graph.customers(asn):
            if customer not in depth:
                depth[customer] = depth[asn] + 1
                queue.append(customer)
    return depth


def depth_to_tier1(graph: ASGraph) -> dict[int, int]:
    """Original depth metric: provider hops to the nearest tier-1."""
    return _bfs_depth(graph, find_tier1(graph))


def effective_depth(
    graph: ASGraph,
    tier1: frozenset[int] | None = None,
    tier2: frozenset[int] | None = None,
) -> dict[int, int]:
    """The paper's redefined depth: hops to the nearest tier-1 *or tier-2*."""
    tier1 = tier1 if tier1 is not None else find_tier1(graph)
    tier2 = tier2 if tier2 is not None else find_tier2(graph, tier1)
    return _bfs_depth(graph, set(tier1) | set(tier2))


def customer_cone(graph: ASGraph, asn: int) -> frozenset[int]:
    """All ASes reachable from *asn* by descending customer links.

    Includes *asn* itself; this is CAIDA's customer-cone definition and the
    basis of the paper's *reach* metric and of defensive stub filtering.
    """
    seen = {asn}
    queue: deque[int] = deque([asn])
    while queue:
        current = queue.popleft()
        for customer in graph.customers(current):
            if customer not in seen:
                seen.add(customer)
                queue.append(customer)
    return frozenset(seen)


def reach(graph: ASGraph, asn: int) -> int:
    """The paper's reach metric: ASes reachable without the aid of peers.

    Valley-free paths that avoid peer links from *asn* can only descend
    customer links, so reach equals the customer-cone size excluding the AS
    itself.
    """
    return len(customer_cone(graph, asn)) - 1


def transit_asns(graph: ASGraph) -> frozenset[int]:
    """ASes with at least one customer (the paper's attacker pool)."""
    return frozenset(asn for asn in graph.asns() if graph.customers(asn))


def stub_asns(graph: ASGraph) -> frozenset[int]:
    """Customer-free ASes (edge networks)."""
    return frozenset(asn for asn in graph.asns() if not graph.customers(asn))


@dataclass(frozen=True)
class TopologySummary:
    """Headline statistics, mirroring the paper's Section III description."""

    as_count: int
    link_count: int
    tier1: frozenset[int]
    tier2: frozenset[int]
    transit_count: int
    stub_count: int
    max_depth: int
    depth_histogram: Mapping[int, int]

    @property
    def transit_fraction(self) -> float:
        return self.transit_count / self.as_count if self.as_count else 0.0


def summarize(graph: ASGraph) -> TopologySummary:
    """Compute the summary used by README examples and calibration tests."""
    tier1 = find_tier1(graph)
    tier2 = find_tier2(graph, tier1)
    depth = effective_depth(graph, tier1, tier2)
    histogram: dict[int, int] = {}
    for value in depth.values():
        histogram[value] = histogram.get(value, 0) + 1
    transit = transit_asns(graph)
    return TopologySummary(
        as_count=len(graph),
        link_count=graph.edge_count(),
        tier1=tier1,
        tier2=tier2,
        transit_count=len(transit),
        stub_count=len(graph) - len(transit),
        max_depth=max(depth.values(), default=0),
        depth_histogram=histogram,
    )
