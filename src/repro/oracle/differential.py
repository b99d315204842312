"""The differential oracle harness: production engine vs reference.

Compares the fast :class:`~repro.bgp.engine.RoutingEngine` (and
:class:`~repro.attacks.lab.HijackLab`, whose convergence cache sits on
top of it) against the deliberately slow
:class:`~repro.oracle.reference.ReferenceSimulator` on the observables
the analyses consume: per-node (origin, class, length) and the polluted
set.

Two entry points:

* :func:`compare_states` / :func:`assert_states_agree` — low-level diff
  between one engine :class:`RouteState` and one reference table, used
  by the property tests;
* :func:`random_hijack_cases` + :func:`run_differential` — a
  dependency-free generator of random internet-shaped hijack cases
  (plain :mod:`repro.util.rng`, no Hypothesis) driving the same
  comparison, so the check is available at runtime through
  ``repro-bgp validate`` and in environments without the test extras.

The test suite's Hypothesis strategies (``tests/strategies.py``) build the
same topology shape through :func:`build_random_topology`, sharing the
generator logic while drawing choices from Hypothesis instead of an RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Mapping

from repro.bgp.engine import RouteState, RoutingEngine
from repro.bgp.policy import PolicyConfig
from repro.oracle.reference import ReferenceRoute, ReferenceSimulator
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.topology.view import RoutingView
from repro.util.rng import make_rng

__all__ = [
    "random_hijack_cases",
    "run_differential",
]


class DifferentialError(AssertionError):
    """The engine and the reference oracle disagreed on a route."""


@dataclass(frozen=True)
class Disagreement:
    """One node on which engine and oracle differ."""

    node: int
    field: str
    engine_value: object
    oracle_value: object

    def __str__(self) -> str:
        return (
            f"node {self.node}: {self.field} engine={self.engine_value!r} "
            f"oracle={self.oracle_value!r}"
        )


def compare_states(
    view: RoutingView,
    engine_state: RouteState,
    oracle_table: Mapping[int, ReferenceRoute],
) -> list[Disagreement]:
    """Diff one engine state against one reference table.

    Compares exactly the observables the model defines: whether a node
    has a route, and if so its installed (origin, class, length). Parent
    pointers are *not* compared — within one (class, length) bucket the
    winning sender is an implementation detail both engines are free to
    pick differently.
    """
    disagreements: list[Disagreement] = []
    for node in range(len(view)):
        oracle_route = oracle_table.get(node)
        if oracle_route is None:
            if engine_state.has_route(node):
                disagreements.append(
                    Disagreement(node, "reachable", True, False)
                )
            continue
        if not engine_state.has_route(node):
            disagreements.append(Disagreement(node, "reachable", False, True))
            continue
        if engine_state.origin_of[node] != oracle_route.origin:
            disagreements.append(
                Disagreement(
                    node, "origin", engine_state.origin_of[node], oracle_route.origin
                )
            )
        if engine_state.cls[node] != oracle_route.route_class:
            disagreements.append(
                Disagreement(
                    node, "class", engine_state.cls[node], oracle_route.route_class
                )
            )
        if engine_state.length[node] != oracle_route.length:
            disagreements.append(
                Disagreement(
                    node, "length", engine_state.length[node], oracle_route.length
                )
            )
    return disagreements


def assert_states_agree(
    view: RoutingView,
    engine_state: RouteState,
    oracle_table: Mapping[int, ReferenceRoute],
    *,
    context: str = "",
) -> None:
    """Raise :class:`DifferentialError` listing every disagreement."""
    disagreements = compare_states(view, engine_state, oracle_table)
    if disagreements:
        listing = "\n  ".join(str(item) for item in disagreements)
        prefix = f"{context}: " if context else ""
        raise DifferentialError(
            f"{prefix}engine and oracle disagree on "
            f"{len(disagreements)} node(s):\n  {listing}"
        )


# -- random case generation (no Hypothesis required) -----------------------

# A "pick" closes over its randomness source and returns an int in
# [lo, hi] inclusive; Hypothesis strategies and plain RNGs both fit.
Pick = Callable[[int, int], int]


def build_random_topology(
    pick: Pick,
    *,
    min_size: int = 4,
    max_size: int = 28,
    max_tier1: int = 3,
) -> ASGraph:
    """A random internet-shaped AS graph (connected provider hierarchy).

    Tier-1 clique on top, every later AS homed to 1–3 earlier ASes,
    random lateral peering, an occasional sibling pair. The shape matches
    what the routing model is defined over (a provider DAG with peers),
    which is the precondition for engine/oracle agreement.
    """
    size = pick(min_size, max_size)
    tier1_count = pick(1, min(max_tier1, size - 1))
    graph = ASGraph()
    for asn in range(tier1_count):
        graph.add_as(asn, tier1=True)
    for a in range(tier1_count):
        for b in range(a + 1, tier1_count):
            graph.add_relationship(a, b, Relationship.PEER)
    for asn in range(tier1_count, size):
        graph.add_as(asn)
        for _ in range(pick(1, min(3, asn))):
            provider = pick(0, asn - 1)
            if graph.relationship(provider, asn) is None:
                graph.add_relationship(provider, asn, Relationship.CUSTOMER)
    for _ in range(pick(0, size)):
        a = pick(tier1_count, size - 1)
        b = pick(tier1_count, size - 1)
        if a != b and graph.relationship(a, b) is None:
            graph.add_relationship(a, b, Relationship.PEER)
    if size > 6 and pick(0, 1):
        a = pick(tier1_count, size - 1)
        b = pick(tier1_count, size - 1)
        if a != b and graph.relationship(a, b) is None:
            graph.add_relationship(a, b, Relationship.SIBLING)
    return graph


@dataclass(frozen=True)
class HijackCase:
    """One differential test case: a topology plus a full attack setup."""

    graph: ASGraph
    view: RoutingView
    target: int
    attacker: int
    blocked: frozenset[int]
    policy: PolicyConfig
    first_hop_filtered: bool


def random_hijack_cases(
    count: int, *, seed: int = 0, max_size: int = 28
) -> Iterator[HijackCase]:
    """Deterministic stream of random hijack cases for ``repro validate``."""
    rng = make_rng(seed, "oracle-differential")
    pick: Pick = rng.randint
    produced = 0
    while produced < count:
        graph = build_random_topology(pick, max_size=max_size)
        view = RoutingView.from_graph(graph)
        if len(view) < 2:
            continue
        target = pick(0, len(view) - 1)
        attacker = pick(0, len(view) - 1)
        if target == attacker:
            continue
        blocked = frozenset(
            pick(0, len(view) - 1) for _ in range(pick(0, len(view) // 2))
        ) - {target, attacker}
        policy = PolicyConfig(tier1_shortest_path=bool(pick(0, 4)))  # mostly on
        first_hop = not pick(0, 3)  # occasionally on
        yield HijackCase(
            graph=graph,
            view=view,
            target=target,
            attacker=attacker,
            blocked=blocked,
            policy=policy,
            first_hop_filtered=first_hop,
        )
        produced += 1


def run_differential(
    cases: Collection[HijackCase] | Iterator[HijackCase],
) -> int:
    """Run engine-vs-oracle on every case; returns the case count.

    Raises :class:`DifferentialError` on the first disagreement. Each
    case exercises the full two-phase hijack with the case's blocked set
    and policy, comparing both the legitimate and the final states.
    """
    checked = 0
    for case in cases:
        engine = RoutingEngine(case.view, case.policy)
        oracle = ReferenceSimulator(
            case.view, tier1_shortest_path=case.policy.tier1_shortest_path
        )
        result = engine.hijack(
            case.target,
            case.attacker,
            blocked=case.blocked,
            filter_first_hop_providers=case.first_hop_filtered,
        )
        oracle_legit = oracle.converge(case.target)
        assert_states_agree(
            case.view,
            result.legitimate,
            oracle_legit,
            context=f"case {checked} (legitimate, target={case.target})",
        )
        oracle_final = oracle.hijack(
            case.target,
            case.attacker,
            blocked=case.blocked,
            filter_first_hop_providers=case.first_hop_filtered,
        )
        assert_states_agree(
            case.view,
            result.final,
            oracle_final,
            context=(
                f"case {checked} (final, target={case.target}, "
                f"attacker={case.attacker})"
            ),
        )
        if result.polluted_nodes != ReferenceSimulator.holders_of(
            oracle_final, case.attacker
        ):
            raise DifferentialError(
                f"case {checked}: polluted sets differ: "
                f"engine={sorted(result.polluted_nodes)} "
                f"oracle={sorted(ReferenceSimulator.holders_of(oracle_final, case.attacker))}"
            )
        checked += 1
    return checked
