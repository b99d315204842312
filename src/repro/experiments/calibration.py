"""Model calibration: the repository's answer to the paper's RouteViews check.

The paper validated its simulator by comparing computed routes against
RouteViews RIBs (62% exact/topologically-equivalent matches) and grounded
it on the CAIDA snapshot's structure. Without network access we validate
differently but more strictly:

* **structural calibration** — the synthetic topology's headline numbers
  against the paper's CAIDA constants (17 tier-1s, 14.8% transit, ~3.26
  links per AS, depths reaching 5+);
* **dual-engine agreement** — the fraction of sampled hijacks where the
  fast engine and the generation-stepped reference flood
  (:class:`~repro.oracle.reference.ReferenceSimulator`) agree *exactly*
  on the polluted set (the analogue of the RIB-match rate; must be 1.0);
* **path realism** — mean inflation of policy-path lengths over plain
  shortest paths for sampled AS pairs. Valley-free routing inflates paths
  only mildly on internet-like graphs; large inflation would flag a
  mis-shaped topology.

``repro-bgp``'s users get this as a one-call health report before trusting
experiment output on a new topology.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Mapping

from repro.attacks.lab import HijackLab
from repro.topology.asgraph import ASGraph
from repro.topology.classify import depth_to_tier1, summarize
from repro.util.rng import make_rng
from repro.util.tables import render_table

__all__ = ["calibrate"]

# The paper's Section III numbers for its CAIDA snapshot.
PAPER_CONSTANTS: Mapping[str, float] = {
    "as_count": 42_697,
    "link_count": 139_156,
    "links_per_as": 139_156 / 42_697,
    "tier1_count": 17,
    "transit_fraction": 6_318 / 42_697,  # ASes with a customer
    "max_depth": 7,  # provider hops to the tier-1 clique, at most
    "deep_target_depth": 5,  # Fig. 2's deepest targets sit this far down
    "routeviews_match": 0.62,
}

# ASes of degree >= each threshold in the paper's snapshot.
PAPER_DEGREE_TAIL: Mapping[int, int] = {500: 62, 300: 124, 200: 166, 100: 299}

# The relative band a built topology must land in around each number.
# They were chosen from the paper's numbers alone, before any builder was
# run against them; never widen one to make a builder pass.
PAPER_BANDS: Mapping[str, float] = {
    "tier1_count": 0.0,  # exact
    "transit_fraction": 0.15,
    "link_count": 0.10,
    "degree_tail": 0.25,  # per threshold
}


def in_band(value: float, paper: float, band: float) -> bool:
    """Whether *value* lies within the relative *band* around *paper*."""
    return paper * (1 - band) <= value <= paper * (1 + band)


@dataclass(frozen=True)
class CalibrationReport:
    """Topology and model health metrics, with the paper's references."""

    as_count: int
    link_count: int
    tier1_count: int
    transit_fraction: float
    max_depth: int
    depth_histogram: Mapping[int, int]
    tier1_depth_histogram: Mapping[int, int]
    degree_tail: Mapping[int, int]
    engine_simulator_agreement: float
    agreement_samples: int
    path_inflation_mean: float
    path_samples: int

    @property
    def links_per_as(self) -> float:
        return self.link_count / self.as_count if self.as_count else 0.0

    def healthy(self) -> bool:
        """The gates experiments rely on."""
        return (
            self.engine_simulator_agreement == 1.0
            and 0.08 <= self.transit_fraction <= 0.25
            and self.max_depth >= 4
            and self.path_inflation_mean < 1.6
        )

    def render(self) -> str:
        """The report table. Its last column marks each row that has a
        paper band in or out of it; the link and degree-tail bands hold
        only at the paper's AS count, so only there are they marked."""
        paper = PAPER_CONSTANTS
        full_size = self.as_count == paper["as_count"]

        def band(name: str, value: float, reference: float) -> str:
            return "in" if in_band(value, reference, PAPER_BANDS[name]) else "OUT"

        depths = self.tier1_depth_histogram
        deepest = max(depths, default=0)
        rows = [
            ("ASes", self.as_count, int(paper["as_count"]), ""),
            ("links", self.link_count, int(paper["link_count"]),
             band("link_count", self.link_count, paper["link_count"]) if full_size else ""),
            ("links/AS", round(self.links_per_as, 2), round(paper["links_per_as"], 2), ""),
            ("tier-1 ASes", self.tier1_count, int(paper["tier1_count"]),
             band("tier1_count", self.tier1_count, paper["tier1_count"])),
            ("transit fraction", f"{self.transit_fraction:.1%}",
             f"{paper['transit_fraction']:.1%}",
             band("transit_fraction", self.transit_fraction, paper["transit_fraction"])),
            ("max depth", self.max_depth, "5+", ""),
            ("max depth to tier-1", deepest,
             f"<= {paper['max_depth']}, one AS at {paper['deep_target_depth']}",
             "in" if deepest <= paper["max_depth"] and paper["deep_target_depth"] in depths
             else "OUT"),
            *((f"ASes of degree >= {threshold}", self.degree_tail[threshold], count,
               band("degree_tail", self.degree_tail[threshold], count))
              for threshold, count in PAPER_DEGREE_TAIL.items() if full_size),
            ("engine/simulator agreement",
             f"{self.engine_simulator_agreement:.0%}",
             f"(paper RIB match: {paper['routeviews_match']:.0%})", ""),
            ("policy path inflation", f"{self.path_inflation_mean:.2f}x", "-", ""),
        ]
        return render_table(
            ("metric", "this topology", "paper / CAIDA", "band"),
            rows,
            title="Calibration report"
            + ("  [healthy]" if self.healthy() else "  [NEEDS ATTENTION]"),
        )


def _hop_distance(graph: ASGraph, source: int, target: int) -> int | None:
    """Undirected shortest-path hop count (relationships ignored), or
    ``None`` when *target* is unreachable from *source*."""
    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        asn, hops = queue.popleft()
        if asn == target:
            return hops
        for neighbor in graph.neighbors(asn):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append((neighbor, hops + 1))
    return None


def calibrate(
    lab: HijackLab,
    *,
    agreement_samples: int = 10,
    path_samples: int = 60,
    seed: int = 0,
) -> CalibrationReport:
    """Measure structural and model health for one lab."""
    from repro.oracle.reference import ReferenceSimulator

    graph = lab.graph
    stats = summarize(graph)
    degrees = [graph.degree(asn) for asn in graph.asns()]
    view = lab.view
    rng = make_rng(seed, "calibration")

    # Dual-engine agreement over random hijacks (exact polluted-set match).
    flood = ReferenceSimulator(
        view, tier1_shortest_path=lab.policy.tier1_shortest_path
    )
    agreements = 0
    pairs = 0
    while pairs < agreement_samples:
        target, attacker = rng.sample(range(len(view)), 2)
        table = flood.hijack(target, attacker)
        result = lab.engine.hijack(target, attacker)
        if flood.holders_of(table, attacker) == result.polluted_nodes:
            agreements += 1
        pairs += 1

    # Path inflation vs undirected shortest paths.
    inflation_total = 0.0
    measured = 0
    attempts = 0
    while measured < path_samples and attempts < path_samples * 5:
        attempts += 1
        origin = rng.randrange(len(view))
        node = rng.randrange(len(view))
        if node == origin:
            continue
        state = lab.cache.baseline(origin)
        length = state.route(node)[1]
        if not state.has_route(node) or length == 0:
            continue
        shortest = _hop_distance(graph, view.asn_of(node), view.asn_of(origin))
        if not shortest:
            continue
        inflation_total += length / shortest
        measured += 1

    return CalibrationReport(
        as_count=stats.as_count,
        link_count=stats.link_count,
        tier1_count=len(stats.tier1),
        transit_fraction=stats.transit_fraction,
        max_depth=stats.max_depth,
        depth_histogram=dict(stats.depth_histogram),
        tier1_depth_histogram=Counter(depth_to_tier1(graph).values()),
        degree_tail={
            threshold: sum(degree >= threshold for degree in degrees)
            for threshold in PAPER_DEGREE_TAIL
        },
        engine_simulator_agreement=agreements / max(1, pairs),
        agreement_samples=pairs,
        path_inflation_mean=inflation_total / max(1, measured),
        path_samples=measured,
    )
