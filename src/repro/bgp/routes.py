"""Routes, RIB entries and the per-AS routing table.

The paper's router objects keep a single best entry per prefix ("If a
router already has an announcement in its RIB and a new announcement
arrives…"), so the RIB here is a plain mapping prefix → :class:`Route`.
Routes carry their full AS-path (as routing-node indices) both for realism
— loop detection, path-length preference — and so property tests can check
every installed path is valley-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.prefixes.prefix import Prefix
from repro.topology.relationships import RouteClass

__all__ = ["Route", "Rib"]


@dataclass(frozen=True)
class Route:
    """One candidate or installed route at a routing node.

    ``path`` lists routing-node indices from this node's neighbor down to
    the origin (so ``len(path)`` is the AS-path length and ``path[-1]`` the
    origin). A self-originated route has an empty path and class ORIGIN.
    """

    prefix: Prefix
    route_class: RouteClass
    path: tuple[int, ...]
    origin: int

    def __post_init__(self) -> None:
        if self.path:
            if self.path[-1] != self.origin:
                raise ValueError("path must end at the origin")
        elif self.route_class is not RouteClass.ORIGIN:
            raise ValueError("empty path is only valid for self-originated routes")

    @property
    def length(self) -> int:
        return len(self.path)

    def extend(self, via: int, route_class: RouteClass) -> "Route":
        """The route as announced *by* node ``via`` to a neighbor that
        classifies it as ``route_class``."""
        return Route(
            prefix=self.prefix,
            route_class=route_class,
            path=(via, *self.path),
            origin=self.origin,
        )

    def contains_node(self, node: int) -> bool:
        """Loop check: is *node* already on the path (or the origin)?"""
        return node in self.path or node == self.origin


class Rib:
    """The single-best-route table of one routing node."""

    def __init__(self) -> None:
        self._entries: dict[Prefix, Route] = {}

    def get(self, prefix: Prefix) -> Route | None:
        return self._entries.get(prefix)

    def install(self, route: Route) -> None:
        self._entries[route.prefix] = route

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._entries.values())
