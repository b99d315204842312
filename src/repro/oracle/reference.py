"""The reference simulator: slow, transparent, and obviously correct.

This is a direct transcription of the routing model in Section III of the
paper, written for auditability rather than speed. Deliberate design
constraints, all of them the *opposite* of the production engines:

* every route carries its **full AS path** as an explicit tuple and its
  length is always ``len(path)`` — nothing is incrementally maintained;
* propagation is a plain synchronous flood: each generation every node
  that changed last generation offers its current route to the neighbors
  the export policy allows, and each receiver picks the best offer by a
  four-line preference rule;
* there are no caches, no bucket queues, no frozen baselines, no
  incremental base-state reuse beyond what the paper's announce-only RIB
  model itself prescribes (a hijack converges the legitimate origin
  first, then the attacker on top of the same table);
* the module imports **nothing** from ``repro.bgp`` — the preference and
  export rules are re-derived here from the paper text, so a bug in
  :mod:`repro.bgp.policy` cannot silently agree with itself.

The production engine is checked against this oracle by
``tests/property/test_oracle_differential.py`` and by the
``repro-bgp validate`` CLI command (see :mod:`repro.oracle.differential`).

It is also the repository's one generation-stepped flood: with an event
log (:meth:`ReferenceSimulator.announce`) it records every offer of every
generation, which drives the Fig. 1 polar animation (red = accepted,
green = rejected) and the convergence statistics of
:mod:`repro.bgp.convergence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping

from repro.topology.view import RoutingView

__all__ = [
    "PropagationEvent",
    "PropagationReport",
    "ReferenceRoute",
    "ReferenceSimulator",
    "ORIGIN",
    "CUSTOMER",
    "PEER",
    "PROVIDER",
]

# LOCAL_PREF classes, re-declared independently of RouteClass. Smaller is
# better: "customers are preferred over peers, and peers are preferred
# over transit providers" (Section III); a self-originated route beats all.
ORIGIN = 0
CUSTOMER = 1
PEER = 2
PROVIDER = 3


@dataclass(frozen=True)
class ReferenceRoute:
    """One installed route: *origin* reached via *path* (receiver first).

    ``path`` lists the nodes the announcement traversed, nearest hop
    first, ending at the origin; the origin's own route has an empty
    path. The AS-path length is always ``len(path)`` — there is no
    separately maintained length to drift out of sync.
    """

    origin: int
    path: tuple[int, ...]
    route_class: int

    @property
    def length(self) -> int:
        return len(self.path)


@dataclass(frozen=True)
class PropagationEvent:
    """One offer crossing one link in one generation; installed or not."""

    generation: int
    sender: int
    receiver: int
    accepted: bool
    route_class: int
    length: int
    origin: int


@dataclass
class PropagationReport:
    """One announcement's flood: its generations and who adopted it."""

    origin: int
    generations: int
    adopters: frozenset[int]
    events: list[PropagationEvent] = field(default_factory=list)

    def events_in_generation(self, generation: int) -> list[PropagationEvent]:
        return [event for event in self.events if event.generation == generation]


def _better(
    is_tier1: bool,
    new_class: int,
    new_length: int,
    old_class: int,
    old_length: int,
    *,
    tier1_shortest_path: bool,
) -> bool:
    """The paper's MESSAGE PRIORITY rule, transcribed.

    LOCAL_PREF class first, then path length; on an exact tie the RIB
    keeps the incumbent ("the new announcement is accepted only if it has
    a shorter path length"). "Tier-1 routers always accept shortest
    path": tier-1 nodes compare length only, still keeping ties.
    """
    if is_tier1 and tier1_shortest_path:
        return new_length < old_length
    if new_class != old_class:
        return new_class < old_class
    return new_length < old_length


class ReferenceSimulator:
    """Synchronous flood of one announcement at a time over a view.

    Operates on the same sibling-collapsed :class:`RoutingView` node
    space as the production engines (sibling collapse is a topology
    transformation, not a routing rule, so sharing it does not weaken the
    differential). All state lives in plain per-call dictionaries mapping
    node index to :class:`ReferenceRoute`.
    """

    def __init__(self, view: RoutingView, *, tier1_shortest_path: bool = True) -> None:
        self.view = view
        self.tier1_shortest_path = tier1_shortest_path

    # -- the paper's rules, one method each --------------------------------

    def _class_at(self, receiver: int, sender: int) -> int:
        """LOCAL_PREF class a route takes at *receiver* when learned from
        *sender*, read straight off the business relationship."""
        if sender in self.view.customers[receiver]:
            return CUSTOMER
        if sender in self.view.peers[receiver]:
            return PEER
        if sender in self.view.providers[receiver]:
            return PROVIDER
        raise ValueError(f"{sender} is not a neighbor of {receiver}")

    def _export_targets(self, sender: int, route: ReferenceRoute) -> list[int]:
        """PROPAGATION POLICY: own and customer routes go to every
        neighbor; peer and provider routes go to customers only. Never
        export back to the neighbor the route was learned from."""
        targets = list(self.view.customers[sender])
        if route.route_class in (ORIGIN, CUSTOMER):
            targets.extend(self.view.peers[sender])
            targets.extend(self.view.providers[sender])
        learned_from = route.path[0] if route.path else None
        return [target for target in targets if target != learned_from]

    # -- convergence -------------------------------------------------------

    def converge(
        self,
        origin: int,
        *,
        table: dict[int, ReferenceRoute] | None = None,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
    ) -> dict[int, ReferenceRoute]:
        """Flood *origin*'s announcement to a stable state.

        ``table`` is the pre-existing RIB the announcement competes
        against (the legitimate state when *origin* is a hijacker); it is
        mutated in place and returned. ``blocked`` nodes drop the
        announcement entirely. ``filter_first_hop_providers`` applies the
        Section IV defensive stub filter: a *stub* origin's direct
        providers drop its announcement (peers and customers still
        receive it).
        """
        table = {} if table is None else table
        self._flood(origin, table, blocked, filter_first_hop_providers, None)
        return table

    def announce(
        self,
        origin: int,
        *,
        table: dict[int, ReferenceRoute] | None = None,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
    ) -> PropagationReport:
        """:meth:`converge` with its event log: every offer of every
        generation, accepted or rejected, in the order the receivers
        weigh them."""
        table = {} if table is None else table
        events: list[PropagationEvent] = []
        generations = self._flood(origin, table, blocked, filter_first_hop_providers, events)
        return PropagationReport(origin, generations, self.holders_of(table, origin), events)

    def _flood(
        self,
        origin: int,
        table: dict[int, ReferenceRoute],
        blocked: Collection[int],
        filter_first_hop_providers: bool,
        events: list[PropagationEvent] | None,
    ) -> int:
        """Run the flood over *table*; return the number of generations
        that carried at least one offer."""
        view = self.view
        blocked_set = frozenset(blocked)
        table[origin] = ReferenceRoute(origin=origin, path=(), route_class=ORIGIN)

        # The stub filter: a stub origin's providers drop its first hop.
        stub_filtered = filter_first_hop_providers and not view.customers[origin]
        first_hop_droppers = frozenset(view.providers[origin] if stub_filtered else ())

        changed = {origin}
        generation = 0
        limit = len(view) + 2  # loop-free paths cannot be longer than this
        while changed:
            # Collect every offer of this generation. An offer is the
            # candidate (class at the receiver, full AS path) a sender's
            # export produces: the sender prepended to the sender's path.
            offers: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
            for sender in sorted(changed):
                route = table[sender]
                candidate_path = (sender, *route.path)
                for receiver in self._export_targets(sender, route):
                    offers.setdefault(receiver, []).append(
                        (
                            self._class_at(receiver, sender),
                            candidate_path,
                            route.origin,
                        )
                    )
            if not offers:
                break
            generation += 1
            if generation > limit:
                raise RuntimeError(
                    f"reference simulator did not converge in {limit} generations"
                )
            # Each receiver picks its best admissible offer and installs
            # it only when strictly preferred over the incumbent. All
            # offers of one generation have equal path length (the flood
            # expands one hop per generation), so "best" is just the best
            # class; within a class the lowest sender wins, which only
            # affects the recorded path, never (origin, class, length).
            changed = set()
            for receiver, received in sorted(offers.items()):
                received.sort()  # best first: class, then sender
                admissible = [] if receiver in blocked_set else [
                    (route_class, path, route_origin)
                    for route_class, path, route_origin in received
                    # AS-path loop check: a route that already traversed
                    # the receiver is discarded on arrival.
                    if receiver not in path and receiver != route_origin
                    and not (path == (origin,) and receiver in first_hop_droppers)
                ]
                winner = None  # the sender whose offer the receiver installs
                if admissible:
                    best_class, best_path, best_origin = admissible[0]
                    incumbent = table.get(receiver)
                    if incumbent is None or _better(
                        view.is_tier1[receiver],
                        best_class,
                        len(best_path),
                        incumbent.route_class,
                        incumbent.length,
                        tier1_shortest_path=self.tier1_shortest_path,
                    ):
                        table[receiver] = ReferenceRoute(
                            origin=best_origin, path=best_path, route_class=best_class
                        )
                        changed.add(receiver)
                        winner = best_path[0]
                if events is not None:  # every offer, after the decision
                    events.extend(
                        PropagationEvent(
                            generation, path[0], receiver, path[0] == winner,
                            route_class, len(path), route_origin,
                        )
                        for route_class, path, route_origin in received
                    )
        return generation

    # -- hijacks -----------------------------------------------------------

    def hijack(
        self,
        target: int,
        attacker: int,
        *,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
    ) -> dict[int, ReferenceRoute]:
        """The paper's two-phase announce-only hijack.

        The legitimate origin converges over a clean network; the
        attacker's announcement then floods over that table, displacing
        entries only where strictly preferred. Returns the final table.
        """
        if target == attacker:
            raise ValueError("attacker and target must differ")
        table = self.converge(target)
        return self.converge(
            attacker,
            table=table,
            blocked=blocked,
            filter_first_hop_providers=filter_first_hop_providers,
        )

    @staticmethod
    def holders_of(table: Mapping[int, ReferenceRoute], origin: int) -> frozenset[int]:
        """Nodes (excluding *origin* itself) routing to *origin*."""
        return frozenset(
            node
            for node, route in table.items()
            if route.origin == origin and node != origin
        )
