"""The shared Hypothesis strategy library for the whole test tree.

Every property test draws its random inputs from here instead of keeping
a private ``@st.composite`` copy: topologies (hierarchical
internet-shaped and arbitrary flat graphs), full hijack cases, ROA
tables, and deployment vectors. Centralizing them means a change to the
topology shape (say, allowing multi-homing depth) immediately reaches
the engine-equivalence, oracle-differential and serialization suites
alike.

This module is the only part of :mod:`repro.oracle` that requires
``hypothesis`` (a test extra, not a runtime dependency); the runtime
validation paths use :func:`repro.oracle.differential.random_hijack_cases`
instead. The topology shape itself is shared with that generator through
:func:`~repro.oracle.differential.build_random_topology`.
"""

from __future__ import annotations

import os
from typing import Sequence

try:
    from hypothesis import strategies as st
except ImportError as error:  # pragma: no cover - test-extra guard
    raise ImportError(
        "repro.oracle.strategies requires the 'hypothesis' test extra "
        "(pip install repro[test]); runtime validation uses "
        "repro.oracle.differential.random_hijack_cases instead"
    ) from error

from repro.bgp.policy import PolicyConfig
from repro.defense.strategies import DeploymentStrategy
from repro.oracle.differential import HijackCase, build_random_topology
from repro.prefixes.prefix import Prefix
from repro.registry.roa import RouteOriginAuthorization
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.topology.view import RoutingView

__all__ = [
    "announce_withdraw_sequences",
    "deployment_vectors",
    "example_budget",
    "flat_graphs",
    "hierarchical_topologies",
    "hijack_cases",
    "roa_tables",
    "routing_views",
    "taxonomy_scenarios",
]


def example_budget(default: int) -> int:
    """Per-test Hypothesis example budget, scaled by the fuzz multiplier.

    The nightly fuzz job (``.github/workflows/fuzz.yml``) sets
    ``REPRO_FUZZ_MULTIPLIER`` to run the same properties at 10–50× the
    interactive budget; see ``docs/testing.md``.
    """
    return default * int(os.environ.get("REPRO_FUZZ_MULTIPLIER", "") or 1)


@st.composite
def flat_graphs(draw, *, max_size: int = 30) -> ASGraph:
    """An arbitrary sparse AS graph, sibling links included.

    No hierarchy is guaranteed (it may be disconnected or cyclic in the
    provider relation) — suitable for serialization / structural
    properties, **not** for routing-model properties, which assume the
    provider hierarchy :func:`hierarchical_topologies` generates.
    """
    size = draw(st.integers(min_value=2, max_value=max_size))
    graph = ASGraph()
    for asn in range(1, size + 1):
        graph.add_as(asn)
    edge_count = draw(st.integers(min_value=0, max_value=size * 2))
    relationship = st.sampled_from(
        [Relationship.CUSTOMER, Relationship.PEER, Relationship.SIBLING]
    )
    for _ in range(edge_count):
        a = draw(st.integers(min_value=1, max_value=size))
        b = draw(st.integers(min_value=1, max_value=size))
        if a == b or graph.relationship(a, b) is not None:
            continue
        graph.add_relationship(a, b, draw(relationship))
    return graph


@st.composite
def hierarchical_topologies(
    draw, *, min_size: int = 4, max_size: int = 28, max_tier1: int = 3
) -> ASGraph:
    """A random internet-shaped AS graph (guaranteed connected hierarchy).

    Tier-1 peering clique, every later AS customer of 1–3 earlier ASes,
    random lateral peering between non-tier-1 nodes, an occasional
    sibling pair to exercise the collapse logic end to end.
    """

    def pick(lo: int, hi: int) -> int:
        return draw(st.integers(min_value=lo, max_value=hi))

    return build_random_topology(
        pick, min_size=min_size, max_size=max_size, max_tier1=max_tier1
    )


@st.composite
def routing_views(draw, *, min_size: int = 4, max_size: int = 28) -> RoutingView:
    """A compiled :class:`RoutingView` over a hierarchical topology."""
    graph = draw(hierarchical_topologies(min_size=min_size, max_size=max_size))
    return RoutingView.from_graph(graph)


@st.composite
def hijack_cases(
    draw,
    *,
    min_size: int = 4,
    max_size: int = 28,
    with_blocking: bool = True,
    with_policy_variants: bool = True,
) -> HijackCase:
    """A complete hijack setup: topology, players, blocked set, policy.

    The one-stop strategy for differential and invariant properties;
    targets and attackers are distinct routing nodes (post sibling
    collapse), the blocked set never contains either, and policy
    variants cover the tier-1 exception and the Section IV stub filter.
    """
    graph = draw(hierarchical_topologies(min_size=min_size, max_size=max_size))
    view = RoutingView.from_graph(graph)
    nodes = st.integers(min_value=0, max_value=len(view) - 1)
    target = draw(nodes)
    attacker = draw(
        nodes.filter(lambda node: node != target)
        if len(view) > 1
        else st.nothing()
    )
    blocked: frozenset[int] = frozenset()
    if with_blocking:
        blocked = frozenset(
            draw(st.sets(nodes, max_size=max(0, len(view) // 2)))
        ) - {target, attacker}
    tier1_shortest = draw(st.booleans()) if with_policy_variants else True
    first_hop = draw(st.booleans()) if with_policy_variants else False
    return HijackCase(
        graph=graph,
        view=view,
        target=target,
        attacker=attacker,
        blocked=blocked,
        policy=PolicyConfig(tier1_shortest_path=tier1_shortest),
        first_hop_filtered=first_hop,
    )


@st.composite
def announce_withdraw_sequences(
    draw,
    *,
    min_size: int = 4,
    max_size: int = 24,
    max_events: int = 10,
    with_blocking: bool = True,
):
    """A routing view plus a random announce/withdraw operation sequence.

    The raw material of the streaming-equivalence properties: each op is
    a ``("announce", origin, blocked, first_hop)`` or
    ``("withdraw", origin, frozenset(), False)`` tuple over the view's
    node indices. Announcements pick currently-inactive origins and
    withdrawals currently-active ones, so every op changes routing state
    — the no-op paths have their own unit tests. Blocked sets (captured
    per announcement, as the stream ledger does) never contain the
    announcing origin; they may contain *other* chain origins, which is
    exactly the multi-announcement case single-pass invariant parameters
    cannot describe.

    A withdraw that empties the sequence may be followed at once by a
    re-announce of the same origin with the same captured inputs: the
    flap a ledger revives instead of re-converging.
    """
    view = draw(routing_views(min_size=min_size, max_size=max_size))
    nodes = st.integers(min_value=0, max_value=len(view) - 1)
    ops: list[tuple[str, int, frozenset[int], bool]] = []
    active: list[int] = []
    count = draw(st.integers(min_value=1, max_value=max_events))
    for _ in range(count):
        inactive = [node for node in range(len(view)) if node not in active]
        if active and (not inactive or draw(st.booleans())):
            origin = draw(st.sampled_from(active))
            active.remove(origin)
            ops.append(("withdraw", origin, frozenset(), False))
            if not active and draw(st.booleans()):
                announced = next(
                    op for op in reversed(ops)
                    if op[0] == "announce" and op[1] == origin
                )
                active.append(origin)
                ops.append(announced)
            continue
        origin = draw(st.sampled_from(inactive))
        blocked: frozenset[int] = frozenset()
        if with_blocking:
            blocked = frozenset(
                draw(st.sets(nodes, max_size=max(0, len(view) // 2)))
            ) - {origin}
        active.append(origin)
        ops.append(("announce", origin, blocked, draw(st.booleans())))
    return view, ops


@st.composite
def taxonomy_scenarios(
    draw, *, min_size: int = 4, max_size: int = 24
) -> tuple[ASGraph, "object"]:
    """A hierarchical topology plus one attack-grid scenario over it.

    Draws any cell of the ARTEMIS grid (prefix axis × path axis, plus the
    route-leak row — :func:`repro.detection.taxonomy.grid_cells`) with
    type-N forged depths 1–3, against distinct target/attacker routing
    nodes. The scenario's prefix comes from the default address plan at
    ``seed=0`` — consumers must build their labs with ``seed=0`` (and the
    same graph) for the scenario to resolve.
    """
    # Imported here: the strategy library must stay importable without
    # dragging the whole attack stack in for the structural suites.
    from repro.attacks.lab import HijackLab
    from repro.detection.taxonomy import grid_cells

    graph = draw(hierarchical_topologies(min_size=min_size, max_size=max_size))
    lab = HijackLab(graph, seed=0)
    view = lab.view
    asns = sorted(graph.asns())
    target_asn = draw(st.sampled_from(asns))
    attacker_asn = draw(
        st.sampled_from(asns).filter(
            lambda asn: view.node_of(asn) != view.node_of(target_asn)
        )
    )
    kind, path_kind = draw(st.sampled_from(grid_cells()))
    depth = draw(st.integers(min_value=1, max_value=3))
    scenario = lab.build_scenario(
        target_asn,
        attacker_asn,
        kind=kind,
        path_kind=path_kind,
        forged_depth=depth,
    )
    return graph, scenario


@st.composite
def roa_tables(
    draw, owners: Sequence[int], *, max_roas: int = 12
) -> list[RouteOriginAuthorization]:
    """Random ROA sets over a handful of disjoint /8 blocks.

    Generates overlapping authorizations (covering prefixes, competing
    origins, maxLength slack) — the fixtures registry/validation
    properties need to exercise VALID / INVALID / NOT_FOUND all at once.
    """
    if not owners:
        raise ValueError("roa_tables needs a non-empty owner pool")
    count = draw(st.integers(min_value=0, max_value=max_roas))
    roas: list[RouteOriginAuthorization] = []
    for _ in range(count):
        block = draw(st.integers(min_value=10, max_value=15))
        length = draw(st.integers(min_value=8, max_value=24))
        host = draw(st.integers(min_value=0, max_value=(1 << (length - 8)) - 1))
        prefix = Prefix.from_host((block << 24) | (host << (32 - length)), length)
        origin = draw(st.sampled_from(list(owners)))
        max_length = draw(
            st.one_of(st.none(), st.integers(min_value=length, max_value=min(32, length + 8)))
        )
        roas.append(
            RouteOriginAuthorization(
                prefix=prefix, origin_asn=origin, max_length=max_length
            )
        )
    return roas


@st.composite
def deployment_vectors(
    draw, asns: Sequence[int], *, name: str = "random-property"
) -> DeploymentStrategy:
    """A random deployment: any subset of *asns* runs origin validation."""
    deployers = draw(st.sets(st.sampled_from(list(asns))) if asns else st.just(set()))
    return DeploymentStrategy(name=name, deployers=frozenset(deployers))
