"""Deterministic full-CAIDA-scale topology fixtures.

The paper's headline figures were computed on the real CAIDA snapshot —
42,697 ASes and 139,156 provider/customer/peer links — which this
environment cannot download. The calibrated generator in
:mod:`repro.topology.generator` reproduces the snapshot's *structure*,
but its degree-preferential sampling is quadratic-ish in the per-region
transit pool and becomes the bottleneck well before 42k ASes. This
module generates CAIDA-*scale* fixtures in O(links): the layering the
scale experiments need (a tier-1 clique, a transit hierarchy with
guaranteed deep chains, a heavy-tailed stub edge) built with an
endpoint-list preferential-attachment pool instead of per-pick weighted
scans.

Fixtures are meant to flow through the real CAIDA serial-1 file format:
the scale benchmark and tests write one with
:func:`repro.topology.caida.dump_caida` and read it back through
:func:`~repro.topology.caida.load_caida_mmap`, so the full-scale path
exercises the same parser a downloaded snapshot would.

Generation is fully deterministic for a given :class:`ScaleFixtureConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.util.rng import make_rng

__all__ = ["ScaleFixtureConfig", "generate_scale_fixture"]


@dataclass(frozen=True)
class ScaleFixtureConfig:
    """Knobs for a CAIDA-scale fixture.

    The defaults match the paper's snapshot headline numbers: 42,697
    ASes, a link count aimed at 139,156 (realized within the peer-fill
    granularity), 17 tier-1s and ~14.8% transit ASes. ``as_count`` is
    exact by construction; ``chain_count`` deep provider chains of
    ``chain_depth`` hops guarantee depth-2…6 targets so the Fig. 2
    depth-ordering phenomenon is measurable at full scale.
    """

    as_count: int = 42_697
    link_target: int = 139_156
    tier1_count: int = 17
    transit_fraction: float = 0.148
    chain_count: int = 48
    chain_depth: int = 5
    sibling_pairs: int = 24
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.tier1_count < 2:
            raise ValueError("need at least two tier-1 ASes")
        transit = int(self.as_count * self.transit_fraction)
        if transit <= self.tier1_count + self.chain_count * self.chain_depth:
            raise ValueError("transit budget too small for the chain configuration")
        if self.as_count <= transit:
            raise ValueError("as_count leaves no room for stubs")

    @classmethod
    def scaled(cls, as_count: int, *, seed: int = 2014, **overrides) -> "ScaleFixtureConfig":
        """A configuration proportionally shrunk from the full snapshot."""
        fraction = as_count / 42_697
        chain_count = overrides.pop("chain_count", max(6, round(48 * fraction)))
        link_target = overrides.pop("link_target", round(139_156 * fraction))
        tier1_count = overrides.pop("tier1_count", 17 if as_count >= 1200 else max(3, as_count // 70))
        return cls(
            as_count=as_count,
            link_target=link_target,
            tier1_count=tier1_count,
            chain_count=chain_count,
            seed=seed,
            **overrides,
        )


def generate_scale_fixture(config: ScaleFixtureConfig | None = None) -> ASGraph:
    """Generate the CAIDA-scale fixture graph (O(links))."""
    config = config or ScaleFixtureConfig()
    rng = make_rng(config.seed, "scale-fixture")
    graph = ASGraph()

    transit_total = int(config.as_count * config.transit_fraction)
    stub_total = config.as_count - transit_total

    # Preferential-attachment endpoint pool: each provider candidate
    # appears once per link it has, so rng.choice over the list is a
    # degree-weighted draw in O(1) — the trick that keeps the whole
    # build linear in the link count.
    endpoint_pool: list[int] = []
    # ASGraph.edge_count() walks every node, so the fill loops below keep
    # their own running link tally instead of polling it per iteration.
    links = 0

    def link(provider: int, customer: int) -> None:
        nonlocal links
        graph.add_relationship(provider, customer, Relationship.CUSTOMER)
        endpoint_pool.append(provider)
        links += 1

    # --- Tier-1 clique. ----------------------------------------------------
    tier1 = list(range(1, config.tier1_count + 1))
    for asn in tier1:
        graph.add_as(asn, tier1=True)
        endpoint_pool.append(asn)  # seed the pool so early picks spread
    for index, a in enumerate(tier1):
        for b in tier1[index + 1 :]:
            graph.add_relationship(a, b, Relationship.PEER)
            links += 1

    next_asn = config.tier1_count + 1

    # --- Deep provider chains (guaranteed depth-2…chain_depth+1 roles). ----
    chain_members: list[int] = []
    for _ in range(config.chain_count):
        previous = rng.choice(tier1)
        for _ in range(config.chain_depth):
            asn = next_asn
            next_asn += 1
            graph.add_as(asn)
            link(previous, asn)
            chain_members.append(asn)
            previous = asn

    # --- Remaining transit: 1–3 providers drawn degree-preferentially. -----
    transit_remaining = transit_total - config.tier1_count - len(chain_members)
    transit = list(chain_members)
    for _ in range(transit_remaining):
        asn = next_asn
        next_asn += 1
        graph.add_as(asn)
        for _ in range(rng.choice((1, 1, 2, 2, 3))):
            provider = rng.choice(endpoint_pool)
            # The pool only ever contains already-placed ASes, so the
            # provider hierarchy is a DAG by construction.
            if provider != asn and graph.relationship(provider, asn) is None:
                link(provider, asn)
        transit.append(asn)

    # --- Stubs: the heavy tail, multihomed 1–3 ways onto the transit edge. -
    first_stub = next_asn
    for _ in range(stub_total):
        asn = next_asn
        next_asn += 1
        graph.add_as(asn)
        homes = rng.choice((1, 1, 1, 2, 2, 3))
        for _ in range(homes):
            provider = rng.choice(endpoint_pool)
            if provider != asn and graph.relationship(provider, asn) is None:
                graph.add_relationship(provider, asn, Relationship.CUSTOMER)
                # Stubs never enter the pool: they must stay customer-free
                # leaves, so only the *provider* endpoint is re-weighted.
                endpoint_pool.append(provider)
                links += 1

    # --- Lateral transit peering up to the link target. --------------------
    attempts = 0
    max_attempts = 4 * config.link_target
    while links < config.link_target and attempts < max_attempts:
        attempts += 1
        a = rng.choice(transit)
        b = rng.choice(transit)
        if a != b and graph.relationship(a, b) is None:
            graph.add_relationship(a, b, Relationship.PEER)
            links += 1

    # --- A sprinkle of sibling stubs (exercises the view collapse). --------
    for _ in range(config.sibling_pairs):
        a = rng.randrange(first_stub, next_asn)
        b = rng.randrange(first_stub, next_asn)
        if a != b and graph.relationship(a, b) is None:
            graph.add_relationship(a, b, Relationship.SIBLING)

    return graph

