"""The generation-stepped BGP message simulator.

This is the faithful re-implementation of the paper's simulator: router
objects exchange prefix announcements with their neighbors in synchronous
generations ("BGP announcements are propagated to neighboring ASes in
step-wise fashion… Generation after generation of message propagation
continues until convergence is reached", Section III). Every acceptance
and rejection is optionally recorded, which is what drives the Fig. 1
polar-graph animation (red = accepted/polluted, green = rejected).

For large attacker sweeps use :class:`repro.bgp.engine.RoutingEngine`,
which computes the identical stable outcome directly; the test suite
asserts exact agreement between the two on randomized topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bgp.policy import PolicyConfig, exports_to_peers_and_providers, prefers
from repro.bgp.routes import Rib, Route
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.prefixes.prefix import Prefix
from repro.topology.relationships import RouteClass
from repro.topology.view import RoutingView

__all__ = [
    "BGPSimulator",
    "PropagationEvent",
    "PropagationReport",
    "ConvergenceError",
    "Validator",
]

# A validator sees the receiving node and the candidate route and returns
# True when the announcement must be dropped (prefix filter / ROV).
Validator = Callable[[int, Route], bool]


class ConvergenceError(RuntimeError):
    """The simulation did not converge within ``max_generations``."""


@dataclass(frozen=True)
class PropagationEvent:
    """One announcement crossing one link in one generation."""

    generation: int
    sender: int
    receiver: int
    accepted: bool
    route_class: RouteClass
    length: int
    origin: int


@dataclass
class PropagationReport:
    """Outcome of one origin announcement."""

    origin: int
    prefix: Prefix
    generations: int
    adopters: frozenset[int]
    events: list[PropagationEvent] = field(default_factory=list)

    def adopter_count(self) -> int:
        return len(self.adopters)

    def events_in_generation(self, generation: int) -> list[PropagationEvent]:
        return [event for event in self.events if event.generation == generation]


class BGPSimulator:
    """Synchronous-generation announcement propagation over a routing view."""

    def __init__(
        self,
        view: RoutingView,
        policy: PolicyConfig | None = None,
        *,
        validator: Validator | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        self.view = view
        self.policy = policy or PolicyConfig()
        self.validator = validator
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._ribs: list[Rib] = [Rib() for _ in range(len(view))]
        # Edge-class lookup: class a route takes *at the receiver* when
        # learned from each neighbor.
        self._class_from: list[dict[int, RouteClass]] = []
        for node in range(len(view)):
            table: dict[int, RouteClass] = {}
            for customer in view.customers[node]:
                table[customer] = RouteClass.CUSTOMER
            for peer in view.peers[node]:
                table[peer] = RouteClass.PEER
            for provider in view.providers[node]:
                table[provider] = RouteClass.PROVIDER
            self._class_from.append(table)

    # -- state inspection ----------------------------------------------------

    def route_to(self, prefix: Prefix, node: int) -> Route | None:
        """The installed route at *node* for exactly *prefix*."""
        return self._ribs[node].get(prefix)

    def adopters_of(self, prefix: Prefix, origin: int) -> frozenset[int]:
        """Nodes (excluding the origin) whose entry for *prefix* leads to
        *origin* — the paper's polluted set when *origin* is the hijacker."""
        return frozenset(
            node
            for node in range(len(self.view))
            if node != origin
            and (route := self._ribs[node].get(prefix)) is not None
            and route.origin == origin
        )

    # -- announcement --------------------------------------------------------

    def announce(
        self,
        origin: int,
        prefix: Prefix,
        *,
        record_events: bool = False,
    ) -> PropagationReport:
        """Originate *prefix* at node *origin* and run to convergence.

        The origin installs its own route unconditionally (a hijacker lies
        on purpose; a legitimate origin starts from a clean table), then the
        announcement floods generation by generation under the policy model.
        """
        view = self.view
        origin_route = Route(prefix=prefix, route_class=RouteClass.ORIGIN, path=(), origin=origin)
        self._ribs[origin].install(origin_route)
        events: list[PropagationEvent] = []
        # Pending messages for the next generation: (sender, receiver, route).
        pending: list[tuple[int, int, Route]] = [
            (origin, neighbor, origin_route)
            for neighbor in sorted(view.neighbor_nodes(origin))
        ]
        generation = 0
        messages = 0
        accepted_count = 0
        while pending:
            generation += 1
            if generation > self.policy.max_generations:
                raise ConvergenceError(
                    f"no convergence after {self.policy.max_generations} generations"
                )
            changed: list[int] = []
            changed_set: set[int] = set()
            # All messages of one generation carry equal-length routes (the
            # announcement expands one hop per generation), so ordering by
            # class makes each receiver consider its best offer first —
            # deterministic tie-breaking that the fast engine reproduces.
            arrivals = [
                (receiver, self._class_from[receiver][sender], sender, sent_route)
                for sender, receiver, sent_route in pending
            ]
            arrivals.sort(key=lambda item: (item[0], item[1].value, item[2]))
            messages += len(arrivals)
            for receiver, route_class, sender, sent_route in arrivals:
                candidate = sent_route.extend(sender, route_class)
                accepted = self._consider(receiver, candidate)
                if accepted:
                    accepted_count += 1
                if record_events:
                    events.append(
                        PropagationEvent(
                            generation=generation,
                            sender=sender,
                            receiver=receiver,
                            accepted=accepted,
                            route_class=candidate.route_class,
                            length=candidate.length,
                            origin=candidate.origin,
                        )
                    )
                if accepted and receiver not in changed_set:
                    changed_set.add(receiver)
                    changed.append(receiver)
            pending = []
            for node in changed:
                route = self._ribs[node].get(prefix)
                assert route is not None
                pending.extend(
                    (node, neighbor, route)
                    for neighbor in self._export_targets(node, route)
                )
        metrics = self.metrics
        if metrics.enabled:
            metrics.count("simulator.announcements")
            metrics.count("simulator.messages", messages)
            metrics.count("simulator.routes_installed", accepted_count)
            metrics.count("simulator.generations", generation)
        return PropagationReport(
            origin=origin,
            prefix=prefix,
            generations=generation,
            adopters=self.adopters_of(prefix, origin),
            events=events,
        )

    # -- internals -------------------------------------------------------------

    def _consider(self, node: int, candidate: Route) -> bool:
        """Apply loop check, validators and RIB preference; install if won."""
        if candidate.contains_node(node):
            return False
        if self.validator is not None and self.validator(node, candidate):
            return False
        incumbent = self._ribs[node].get(candidate.prefix)
        if incumbent is not None:
            if not prefers(
                self.view.is_tier1[node],
                candidate.route_class,
                candidate.length,
                incumbent.route_class,
                incumbent.length,
                tier1_shortest_path=self.policy.tier1_shortest_path,
            ):
                return False
        self._ribs[node].install(candidate)
        return True

    def _export_targets(self, node: int, route: Route) -> Sequence[int]:
        """Valley-free export: customers always, the rest only for
        own/customer routes. Never export back to the learning neighbor."""
        learned_from = route.path[0] if route.path else None
        targets = list(self.view.customers[node])
        if exports_to_peers_and_providers(route.route_class):
            targets.extend(self.view.peers[node])
            targets.extend(self.view.providers[node])
        return sorted(target for target in targets if target != learned_from)
