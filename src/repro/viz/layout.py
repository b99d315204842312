"""The CAIDA-inspired polar layout of Fig. 1.

"The polar graphs are constructed such that an AS's longitude is plotted
along the graph perimeter, and the AS depth is plotted along the radius.
This results in 7 concentric circles… with highest depth in the center…
The size of an AS circle indicates the amount of address space an AS
owns. AS degree is shown by scattering within a concentric circle. Higher
degree ASes are towards the center."

This module computes those coordinates; :mod:`repro.viz.polar` renders
them. Longitude groups ASes by region (keeping regional meshes visually
adjacent) and orders within a region by provider to keep customer cones
contiguous.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from repro.prefixes.addressing import AddressPlan
from repro.topology.asgraph import ASGraph
from repro.topology.classify import effective_depth, find_tier1, find_tier2
from repro.topology.view import RoutingView

__all__ = ["PolarLayout"]


@dataclass(frozen=True)
class NodePosition:
    """One AS's place on the polar canvas (unit-disc coordinates)."""

    asn: int
    angle: float  # radians along the perimeter
    radius: float  # 0 (center, deepest) .. 1 (rim, tier-1)
    size: float  # marker radius, scaled by owned address space
    depth: int

    def xy(self, *, center: float, scale: float) -> tuple[float, float]:
        return (
            center + scale * self.radius * math.cos(self.angle),
            center + scale * self.radius * math.sin(self.angle),
        )


@dataclass(frozen=True)
class PolarLayout:
    """Positions for every AS plus ring metadata for the renderer."""

    positions: dict[int, NodePosition]
    max_depth: int

    @classmethod
    def compute(
        cls,
        graph: ASGraph,
        *,
        plan: AddressPlan | None = None,
        view: RoutingView | None = None,
    ) -> "PolarLayout":
        tier1 = find_tier1(graph)
        tier2 = find_tier2(graph, tier1)
        depth = effective_depth(graph, tier1, tier2)
        max_depth = max(depth.values(), default=0)
        rings = max_depth + 1  # one ring per depth, tier-1 on the rim

        # Longitude: sort by (region, shallowest provider, asn) so customer
        # cones cluster; spread evenly around the circle.
        def sort_key(asn: int) -> tuple:
            providers = sorted(graph.providers(asn))
            anchor = providers[0] if providers else asn
            return (graph.region_of(asn) or "", anchor, asn)

        ordered = sorted(graph.asns(), key=sort_key)
        count = max(1, len(ordered))

        # Degree scattering: percentile of degree within each depth band
        # pushes high-degree ASes toward the inner edge of their ring.
        degrees_by_depth: dict[int, list[int]] = {}
        for asn in ordered:
            degrees_by_depth.setdefault(depth.get(asn, 0), []).append(
                graph.degree(asn)
            )
        for values in degrees_by_depth.values():
            values.sort()

        max_space = 1
        if plan is not None:
            max_space = max(
                (plan.address_space_of(asn) for asn in ordered), default=1
            )

        positions: dict[int, NodePosition] = {}
        ring_width = 1.0 / rings if rings else 1.0
        for index, asn in enumerate(ordered):
            node_depth = depth.get(asn, max_depth)
            band = degrees_by_depth[node_depth]
            degree = graph.degree(asn)
            # rank in [0, 1): 0 = lowest degree (outer edge of the ring).
            rank = bisect.bisect_left(band, degree) / max(1, len(band))
            ring_outer = 1.0 - node_depth * ring_width
            radius = ring_outer - ring_width * (0.15 + 0.7 * rank)
            if plan is not None:
                space = plan.address_space_of(asn)
                size = 1.5 + 6.0 * math.sqrt(space / max_space)
            else:
                size = 2.0
            positions[asn] = NodePosition(
                asn=asn,
                angle=2 * math.pi * index / count,
                radius=max(0.02, radius),
                size=size,
                depth=node_depth,
            )
        return cls(positions=positions, max_depth=max_depth)

    def position_of(self, asn: int) -> NodePosition:
        return self.positions[asn]
