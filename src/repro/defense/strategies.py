"""Incremental deployment strategies from Section V.

Each strategy answers "which ASes run origin validation / filtering?" and
returns a set of ASNs. The paper's ladder:

* **random-k** — "various random ASes are motivated to deploy BGP security
  on their own" (k = 100 and 500 of the transit ASes in the paper);
* **tier-1** — the 17 tier-1 ASes act alone;
* **degree tiers** — all ASes above a degree threshold: 62 ASes with
  degree ≥ 500, then 124 (≥300), 166 (≥200) and 299 (≥100).

Because the synthetic topology is ~1/10 the CAIDA snapshot, degree-tier
strategies are expressed primarily as *top-k by degree* with the paper's
counts, which selects the structurally analogous core sets; an absolute
``min_degree`` form is also provided for use with real CAIDA data.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.topology.asgraph import ASGraph
from repro.topology.classify import find_tier1, transit_asns
from repro.util.rng import make_rng

__all__ = [
    "DeploymentStrategy",
    "no_deployment",
    "random_deployment",
    "tier1_deployment",
    "top_degree_deployment",
    "degree_threshold_deployment",
    "custom_deployment",
    "paper_ladder",
]


@dataclass(frozen=True)
class DeploymentStrategy:
    """A named set of deploying ASes."""

    name: str
    deployers: frozenset[int]

    def __len__(self) -> int:
        return len(self.deployers)

    def __contains__(self, asn: int) -> bool:
        return asn in self.deployers


def no_deployment() -> DeploymentStrategy:
    """The baseline: nobody blocks anything."""
    return DeploymentStrategy("baseline", frozenset())


def random_deployment(graph: ASGraph, count: int, *, seed: int = 0) -> DeploymentStrategy:
    """*count* ASes picked uniformly at random from the transit pool,
    matching the paper's random-100/random-500 runs."""
    pool: Sequence[int] = sorted(transit_asns(graph))
    if count > len(pool):
        raise ValueError(f"cannot pick {count} from a pool of {len(pool)}")
    rng = make_rng(seed, "random-deployment", count)
    return DeploymentStrategy(
        f"random-{count}", frozenset(rng.sample(pool, count))
    )


def tier1_deployment(graph: ASGraph) -> DeploymentStrategy:
    """The tier-1 clique acting on its own."""
    tier1 = find_tier1(graph)
    return DeploymentStrategy(f"tier1-{len(tier1)}", tier1)


def top_degree_deployment(graph: ASGraph, count: int) -> DeploymentStrategy:
    """The *count* highest-degree ASes (the scaled form of the paper's
    degree-threshold tiers). Ties broken by ASN for determinism."""
    degree = graph.degree
    ranked = heapq.nsmallest(count, graph.asns(), key=lambda asn: (-degree(asn), asn))
    return DeploymentStrategy(f"top-degree-{count}", frozenset(ranked))


def degree_threshold_deployment(graph: ASGraph, min_degree: int) -> DeploymentStrategy:
    """All ASes with degree ≥ *min_degree* (the paper's literal form, for
    full-scale CAIDA runs)."""
    chosen = frozenset(
        asn for asn in graph.asns() if graph.degree(asn) >= min_degree
    )
    return DeploymentStrategy(f"degree>={min_degree}", chosen)


def custom_deployment(name: str, asns: Iterable[int]) -> DeploymentStrategy:
    return DeploymentStrategy(name, frozenset(asns))


def paper_ladder(graph: ASGraph, *, seed: int = 0) -> list[DeploymentStrategy]:
    """The exact strategy sequence of Figs. 5 and 6.

    Baseline, random-100, random-500 (scaled to the transit pool when it is
    smaller than the paper's 6,318), tier-1, then the four degree tiers by
    the paper's counts: 62, 124, 166 and 299 ASes.
    """
    transit_pool = len(transit_asns(graph))
    scale = min(1.0, transit_pool / 6318)
    random_counts = [max(1, round(100 * scale) or 1), max(2, round(500 * scale))]
    ladder = [no_deployment()]
    for count in random_counts:
        ladder.append(random_deployment(graph, count, seed=seed))
    ladder.append(tier1_deployment(graph))
    for count in (62, 124, 166, 299):
        ladder.append(
            DeploymentStrategy(
                f"core-{count}",
                top_degree_deployment(graph, min(count, len(graph))).deployers,
            )
        )
    return ladder
