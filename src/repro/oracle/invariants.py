"""Structural invariants of converged routing states.

Each check raises :class:`InvariantViolation` with enough context to
reproduce (node indices, classes, lengths). The checks are pure reads
over a :class:`~repro.bgp.engine.RouteState` and its
:class:`~repro.topology.view.RoutingView`; they hold for *any* final
state the announce-only model can produce, including the mixed
legitimate/bogus states left behind by a hijack:

* **shape** — arrays sized to the view; a node either has no entry at
  all (no class, no parent, unreachable length) or a complete one.
* **parent consistency** — a route's class matches the business
  relationship of the edge it was learned over.
* **loop-freedom** — parent chains are acyclic and terminate at a
  self-originated entry. (Parent pointers are install-time snapshots, so
  chains may cross announcement origins; acyclicity still holds because
  per-node entries only ever improve in preference order.)
* **valley-freedom (final form)** — a customer- or peer-class entry was
  necessarily exported by a node whose class was origin/customer at
  export time; for non-tier-1 exporters class never worsens, so their
  *final* class must still be origin/customer. (Tier-1 exporters rank by
  length only and are exempt.)
* **preference stability** — every final route was exported to every
  neighbor the valley-free policy allows, and each such neighbor
  evaluated it; since entries only improve, no node may end up holding
  an entry strictly worse than a neighbor's exportable final route.
* **blocked coherence** — nodes that drop an announcement never hold a
  route originated by it.

Runtime use: :class:`~repro.bgp.engine.RoutingEngine` calls
:func:`check_route_state` after every convergence when constructed with
``validate=True``; the flag is threaded through ``HijackLab``,
``ExperimentConfig`` and the CLI. The default (off) path only tests one
boolean per convergence — nothing in the hot loops changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Mapping, Sequence

from repro.bgp.engine import UNREACHABLE, RouteState
from repro.bgp.policy import PolicyConfig, prefers
from repro.topology.relationships import RouteClass
from repro.topology.view import RoutingView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attacks.lab import ConvergenceCache
    from repro.bgp.engine import HijackResult, RoutingEngine

__all__ = [
    "InvariantViolation",
    "check_route_state",
    "check_hijack_result",
    "check_convergence_deterministic",
    "check_cache_coherence",
]

_NO_CLASS = 9  # mirrors repro.bgp.engine._NO_CLASS
_ORIGIN = int(RouteClass.ORIGIN)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)


class InvariantViolation(AssertionError):
    """A converged routing state broke a structural invariant."""


def _fail(invariant: str, detail: str) -> None:
    raise InvariantViolation(f"[{invariant}] {detail}")


def _edge_class(view: RoutingView, node: int, neighbor: int) -> int | None:
    """Class a route takes at *node* when learned from *neighbor*."""
    if neighbor in view.customers[node]:
        return _CUSTOMER
    if neighbor in view.peers[node]:
        return _PEER
    if neighbor in view.providers[node]:
        return _PROVIDER
    return None


def _check_shape(
    view: RoutingView,
    state: RouteState,
    origin_lengths: "Mapping[int, int] | None" = None,
) -> None:
    n = len(view)
    pad_of = origin_lengths or {}
    cls, length, parent, origin_of = columns = (
        state.cls, state.length, state.parent, state.origin_of
    )
    for name, array in zip(("cls", "length", "parent", "origin_of"), columns):
        if len(array) != n:
            _fail("shape", f"{name} has {len(array)} entries for a {n}-node view")
    for node in range(n):
        has_class = cls[node] != _NO_CLASS
        has_length = length[node] != UNREACHABLE
        has_origin = origin_of[node] != -1
        if not (has_class == has_length == has_origin):
            _fail(
                "shape",
                f"node {node} is half-routed: cls={cls[node]} "
                f"length={length[node]} origin_of={origin_of[node]}",
            )
        if not has_class:
            if parent[node] != -1:
                _fail("shape", f"routeless node {node} has parent {parent[node]}")
            continue
        if cls[node] == _ORIGIN:
            # A path-forging announcer installs at its claimed-path padding
            # (see RoutingEngine.converge's origin_length); honest origins
            # install at 0.
            expected_length = pad_of.get(node, 0)
            if length[node] != expected_length or parent[node] != -1:
                _fail(
                    "shape",
                    f"origin-class node {node} has length {length[node]} "
                    f"(expected {expected_length}) parent {parent[node]}",
                )
            if origin_of[node] != node:
                _fail(
                    "shape",
                    f"origin-class node {node} claims origin {origin_of[node]}",
                )
        else:
            if length[node] < 1:
                _fail("shape", f"node {node} has non-positive length {length[node]}")
            if parent[node] < 0:
                _fail("shape", f"routed node {node} has no parent")


def _check_parent_edges(view: RoutingView, state: RouteState) -> None:
    cls, parents = state.cls, state.parent
    for node in range(len(view)):
        parent = parents[node]
        if parent < 0:
            continue
        edge = _edge_class(view, node, parent)
        if edge is None:
            _fail("parent-edge", f"node {node} claims non-neighbor parent {parent}")
        if edge != cls[node]:
            _fail(
                "parent-edge",
                f"node {node} holds class {cls[node]} but its parent "
                f"{parent} is reached over a class-{edge} edge",
            )
        if not state.has_route(parent):
            _fail("parent-edge", f"node {node}'s parent {parent} has no route")


def _check_loop_free(view: RoutingView, state: RouteState) -> None:
    cls, parents = state.cls, state.parent
    for node in range(len(view)):
        if not state.has_route(node):
            continue
        seen = {node}
        current = node
        while True:
            parent = parents[current]
            if parent < 0:
                if cls[current] != _ORIGIN:
                    _fail(
                        "loop-free",
                        f"parent chain from {node} ends at non-origin {current}",
                    )
                break
            if parent in seen:
                _fail("loop-free", f"parent cycle through {parent} (from node {node})")
            seen.add(parent)
            current = parent


def _check_valley_free(
    view: RoutingView, state: RouteState, policy: PolicyConfig
) -> None:
    cls, parents = state.cls, state.parent
    for node in range(len(view)):
        parent = parents[node]
        if parent < 0 or cls[node] not in (_CUSTOMER, _PEER):
            continue
        if view.is_tier1[parent] and policy.tier1_shortest_path:
            continue  # length-only ranking: class at a tier-1 is not monotone
        if cls[parent] not in (_ORIGIN, _CUSTOMER):
            _fail(
                "valley-free",
                f"node {node} holds a class-{cls[node]} route from "
                f"{parent}, whose final class {cls[parent]} could "
                "never have been exported upward/sideways",
            )


_EMPTY: frozenset[int] = frozenset()


def _check_stability(
    view: RoutingView,
    state: RouteState,
    policy: PolicyConfig,
    blocked_by_origin: dict[int, frozenset[int]],
    first_hop_stubs: frozenset[int],
) -> None:
    cls, length, origin_of = state.cls, state.length, state.origin_of
    tier1_shortest = policy.tier1_shortest_path
    for exporter in range(len(view)):
        if not state.has_route(exporter):
            continue
        exporter_class = cls[exporter]
        exporter_length = length[exporter]
        exporter_origin = origin_of[exporter]
        dropped_by = blocked_by_origin.get(exporter_origin, _EMPTY)
        receivers = list(view.customers[exporter])
        if exporter_class in (_ORIGIN, _CUSTOMER):
            receivers.extend(view.peers[exporter])
            if not (exporter == exporter_origin and exporter in first_hop_stubs):
                receivers.extend(view.providers[exporter])
        for receiver in receivers:
            if receiver in dropped_by:
                continue  # the receiver drops this origin's announcements
            if cls[receiver] == _ORIGIN:
                # An announcer never replaces its own announcement with a
                # learned route. Only claimed-path padding can make this
                # matter: a tier-1 forging a type-N path holds its padded
                # origin route even when length-only ranking says a
                # neighbor's shorter offer "beats" it. Honest origins sit
                # at length 0, which nothing can beat.
                continue
            offered_class = _edge_class(view, receiver, exporter)
            assert offered_class is not None
            if not state.has_route(receiver):
                _fail(
                    "stability",
                    f"node {receiver} has no route although neighbor "
                    f"{exporter} exports one to it",
                )
            if prefers(
                view.is_tier1[receiver],
                offered_class,  # type: ignore[arg-type]
                exporter_length + 1,
                cls[receiver],  # type: ignore[arg-type]
                length[receiver],
                tier1_shortest_path=tier1_shortest,
            ):
                _fail(
                    "stability",
                    f"node {receiver} holds (class={cls[receiver]}, "
                    f"length={length[receiver]}) but neighbor {exporter} "
                    f"offers a strictly better (class={offered_class}, "
                    f"length={exporter_length + 1}) route",
                )


def _check_blocked(
    state: RouteState, blocked_by_origin: dict[int, frozenset[int]]
) -> None:
    origin_of = state.origin_of
    for origin, blocked in blocked_by_origin.items():
        for node in blocked:
            if node == origin:
                continue  # an attacker always installs its own bogus route
            if origin_of[node] == origin:
                _fail(
                    "blocked",
                    f"blocked node {node} holds a route originated by {origin}",
                )


def check_route_state(
    view: RoutingView,
    state: RouteState,
    *,
    policy: PolicyConfig | None = None,
    blocked: Collection[int] = (),
    first_hop_filtered: bool = False,
    history: "Sequence[tuple[int, Collection[int], bool]] | None" = None,
    origin_lengths: "Mapping[int, int] | None" = None,
) -> None:
    """Run the full invariant suite on one converged state.

    ``blocked`` and ``first_hop_filtered`` describe the convergence pass
    that *produced* the state (they scope the stability and blocked
    checks to the announcements that were actually evaluated). Raises
    :class:`InvariantViolation` on the first violation found.

    A state stacked from *several* announcements with different blocked
    sets — a stream ledger, or any chain deeper than the batch
    legitimate→attack pair — cannot be described by one pass's
    parameters: a node blocked during an **earlier** pass legitimately
    lacks that origin's route, which the single-pass stability check
    would flag. For those, pass ``history`` instead: one
    ``(origin, blocked, first_hop_filtered)`` triple per *active*
    announcement (one per distinct origin, in announcement order). The
    stability and blocked checks then scope each exemption to the origin
    whose pass it was captured for; ``blocked``/``first_hop_filtered``
    are ignored when ``history`` is given.

    ``origin_lengths`` maps origin *nodes* to the claimed-path padding
    their announcement carried (:meth:`RoutingEngine.converge
    <repro.bgp.engine.RoutingEngine.converge>`'s ``origin_length``);
    origins absent from the mapping are expected at the honest length 0.
    """
    policy = policy or PolicyConfig()
    if history is None:
        history = ((state.origin, blocked, first_hop_filtered),)
    blocked_by_origin = {
        origin: frozenset(origin_blocked) for origin, origin_blocked, _ in history
    }
    first_hop_stubs = frozenset(
        origin
        for origin, _, first_hop in history
        if first_hop and not view.customers[origin]
    )
    _check_shape(view, state, origin_lengths)
    _check_parent_edges(view, state)
    _check_loop_free(view, state)
    _check_valley_free(view, state, policy)
    _check_stability(view, state, policy, blocked_by_origin, first_hop_stubs)
    _check_blocked(state, blocked_by_origin)


def check_hijack_result(
    view: RoutingView,
    result: "HijackResult",
    *,
    policy: PolicyConfig | None = None,
    blocked: Collection[int] = (),
    first_hop_filtered: bool = False,
) -> None:
    """Invariant suite over both phases of a hijack computation."""
    check_route_state(view, result.legitimate, policy=policy)
    check_route_state(
        view,
        result.final,
        policy=policy,
        blocked=blocked,
        first_hop_filtered=first_hop_filtered,
    )
    polluted = result.polluted_nodes
    if polluted & frozenset(blocked):
        _fail(
            "blocked",
            f"polluted set intersects the blocked set: "
            f"{sorted(polluted & frozenset(blocked))}",
        )
    if result.attacker in polluted or result.target in polluted:
        _fail("pollution", "polluted set contains the attacker or the target")


def check_convergence_deterministic(engine: "RoutingEngine", origin: int) -> None:
    """Two independent convergences of the same origin are bit-identical."""
    first = engine.converge(origin)
    second = engine.converge(origin)
    if first.checksum() != second.checksum():
        _fail(
            "determinism",
            f"repeated convergence of origin {origin} produced different states",
        )


def check_cache_coherence(cache: "ConvergenceCache") -> None:
    """Every cached baseline is frozen, and byte-identical to its insert
    wherever its checksum was recorded (a validating engine's cache).

    Catches in-place mutation of a shared baseline, which would silently
    skew every hijack later converged on top of it.
    """
    for origin, (state, checksum) in cache.entries():
        if not state.is_frozen:
            _fail("cache", f"cached baseline for origin {origin} is not frozen")
        if checksum is not None and state.checksum() != checksum:
            _fail(
                "cache",
                f"cached baseline for origin {origin} was mutated after insertion",
            )
