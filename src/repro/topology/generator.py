"""Calibrated synthetic internet topology generator.

The paper's experiments run on a CAIDA AS-relationship snapshot (42,697
ASes, 139,156 links, 17 tier-1s, 6,318 transit ASes = 14.7%). Without
network access we generate a topology with the same *structure* at a
configurable scale (default 1/10):

* a full-mesh **tier-1 clique** (17 ASes),
* a layer of high-degree **tier-2** regional carriers, multihomed to several
  tier-1s and densely peered with each other,
* **mid-level transit** ASes attaching to tier-2s/tier-1s and occasionally
  to each other (which produces depth-2/3 transit),
* deliberate **deep access chains** per region so that depth-4/5/6 ASes
  exist (the paper's very-vulnerable AS55857 sits at depth 5),
* a heavy tail of **stub** ASes with realistic multihoming, attached by
  degree-preferential selection (yielding a power-law-ish degree
  distribution),
* a sprinkle of **sibling groups**, and
* **regions** with uneven (Zipf-like) sizes — Section VII's New-Zealand
  experiment needs a small, partly self-contained region.

Generation is fully deterministic for a given :class:`GeneratorConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.prefixes.addressing import AddressPlan
from repro.topology.asgraph import ASGraph
from repro.topology.relationships import Relationship
from repro.util.rng import make_rng

__all__ = ["GeneratorConfig", "generate_topology", "default_address_plan"]

# Below this size the scaled transit budget cannot hold the tier-2 layer,
# the deep chains and one mid-level transit AS per region.
_SMALLEST_SCALED = 160


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic topology.

    The defaults reproduce the paper's structural statistics at 1/10 scale.
    ``as_count`` is a target; the realized count matches it exactly.
    """

    as_count: int = 4270
    tier1_count: int = 17
    region_count: int = 12
    transit_fraction: float = 0.15
    seed: int = 2014

    # Tier-2 layer.
    tier2_count: int = 70
    tier2_provider_range: tuple[int, int] = (2, 4)
    tier2_same_region_peer_probability: float = 0.9
    tier2_cross_region_peer_probability: float = 0.3

    # Mid-level transit.
    mid_provider_range: tuple[int, int] = (1, 3)
    mid_transit_parent_probability: float = 0.25
    mid_tier1_parent_probability: float = 0.2
    mid_peer_mean: float = 2.0

    # Deep access chains (guarantee high-depth ASes for the experiments).
    chains_per_region: int = 2
    chain_length: int = 4

    # Stubs.
    stub_multihome_probabilities: tuple[float, ...] = (0.45, 0.40, 0.15)
    stub_same_region_probability: float = 0.85
    stub_direct_tier1_probability: float = 0.10

    # Sibling groups.
    sibling_fraction: float = 0.01

    # Island region: make the smallest region insular, like the paper's
    # New-Zealand slice — its non-tier-2 members buy transit only inside
    # the region, so all external connectivity funnels through the
    # regional gateway carriers (which is what makes Section VII's
    # single-hub filter meaningful). Set False for fully mixed regions.
    island_region: bool = True

    @classmethod
    def scaled(cls, as_count: int, *, seed: int = 2014, **overrides) -> "GeneratorConfig":
        """A configuration with layer sizes derived proportionally.

        The class defaults are tuned for ~4,270 ASes; this constructor
        scales the region count, tier-2 layer and deep-chain budget to any
        requested size (floors keep the experiment roles — deep stubs, a
        small region, a tier-2 layer — present even at a few hundred ASes).
        A tier-2 AS never asks for more tier-1 providers than there are.
        Below 160 ASes those roles no longer fit, and this raises a
        ``ValueError`` that names the limit.
        """
        if as_count < _SMALLEST_SCALED:
            raise ValueError(
                f"as_count={as_count} is below the smallest scaled topology "
                f"({_SMALLEST_SCALED} ASes)"
            )
        region_count = overrides.pop(
            "region_count", max(3, min(12, as_count // 300))
        )
        tier2_count = overrides.pop(
            "tier2_count", max(2 * region_count, round(as_count / 61))
        )
        chains_per_region = overrides.pop(
            "chains_per_region", 2 if as_count >= 2000 else 1
        )
        tier1_count = overrides.pop("tier1_count", 17 if as_count >= 1200 else max(3, as_count // 70))
        low, high = cls.tier2_provider_range
        tier2_provider_range = overrides.pop(
            "tier2_provider_range", (min(low, tier1_count), min(high, tier1_count))
        )
        return cls(
            as_count=as_count,
            seed=seed,
            region_count=region_count,
            tier2_count=tier2_count,
            chains_per_region=chains_per_region,
            tier1_count=tier1_count,
            tier2_provider_range=tier2_provider_range,
            **overrides,
        )

    def __post_init__(self) -> None:
        if self.tier1_count < 2:
            raise ValueError("need at least two tier-1 ASes")
        if self.tier2_provider_range[1] > self.tier1_count:
            raise ValueError(
                f"tier2_provider_range {self.tier2_provider_range} asks for more "
                f"than the {self.tier1_count} tier-1 providers there are"
            )
        minimum = (
            self.tier1_count
            + self.tier2_count
            + self.region_count * self.chains_per_region * self.chain_length
            + self.region_count
        )
        if self.as_count < minimum + 10:
            raise ValueError(
                f"as_count={self.as_count} too small for this configuration "
                f"(needs at least {minimum + 10})"
            )
        if abs(sum(self.stub_multihome_probabilities) - 1.0) > 1e-9:
            raise ValueError("stub_multihome_probabilities must sum to 1")


@dataclass
class _Builder:
    config: GeneratorConfig
    graph: ASGraph = field(default_factory=ASGraph)
    next_asn: int = 1
    regions: list[str] = field(default_factory=list)
    island: str | None = None
    tier1: list[int] = field(default_factory=list)
    tier2_by_region: dict[str, list[int]] = field(default_factory=dict)
    transit_by_region: dict[str, list[int]] = field(default_factory=dict)
    degree_weight: dict[int, int] = field(default_factory=dict)

    def new_asn(self) -> int:
        asn = self.next_asn
        self.next_asn += 1
        return asn

    def link(self, provider: int, customer: int) -> None:
        self.graph.add_relationship(provider, customer, Relationship.CUSTOMER)
        self.degree_weight[provider] = self.degree_weight.get(provider, 0) + 1
        self.degree_weight[customer] = self.degree_weight.get(customer, 0) + 1

    def peer(self, a: int, b: int) -> None:
        if self.graph.relationship(a, b) is None:
            self.graph.add_relationship(a, b, Relationship.PEER)
            self.degree_weight[a] = self.degree_weight.get(a, 0) + 1
            self.degree_weight[b] = self.degree_weight.get(b, 0) + 1


def _region_sizes(total: int, count: int) -> list[int]:
    """Zipf-flavoured region sizes summing exactly to *total*."""
    weights = [1.0 / (index + 1) ** 0.6 for index in range(count)]
    scale = total / sum(weights)
    sizes = [max(1, int(weight * scale)) for weight in weights]
    sizes[0] += total - sum(sizes)  # absorb rounding in the largest region
    return sizes


def generate_topology(config: GeneratorConfig | None = None) -> ASGraph:
    """Generate the calibrated synthetic AS topology."""
    config = config or GeneratorConfig()
    rng = make_rng(config.seed, "topology")
    builder = _Builder(config)
    graph = builder.graph

    builder.regions = [f"R{index:02d}" for index in range(config.region_count)]
    if config.island_region and config.region_count >= 2:
        # _region_sizes is decreasing, so the last region is the smallest.
        builder.island = builder.regions[-1]

    # --- Tier-1 clique (global, regionless). -------------------------------
    for _ in range(config.tier1_count):
        asn = builder.new_asn()
        graph.add_as(asn, tier1=True)
        builder.tier1.append(asn)
    for i, a in enumerate(builder.tier1):
        for b in builder.tier1[i + 1 :]:
            builder.peer(a, b)

    # --- Budget the remaining ASes. ----------------------------------------
    remaining = config.as_count - config.tier1_count
    transit_budget = max(
        config.tier2_count + config.region_count,
        int(config.as_count * config.transit_fraction) - config.tier1_count,
    )
    chain_transit = config.region_count * config.chains_per_region * config.chain_length
    mid_count = transit_budget - config.tier2_count - chain_transit
    if mid_count < config.region_count:
        raise ValueError("transit budget too small for the chain configuration")
    stub_count = remaining - transit_budget

    region_of_tier2 = _region_sizes(config.tier2_count, config.region_count)

    # --- Tier-2 carriers. ---------------------------------------------------
    all_tier2: list[int] = []
    for region, quota in zip(builder.regions, region_of_tier2):
        members: list[int] = []
        for _ in range(quota):
            asn = builder.new_asn()
            graph.add_as(asn, region=region)
            count = rng.randint(*config.tier2_provider_range)
            for provider in rng.sample(builder.tier1, count):
                builder.link(provider, asn)
            members.append(asn)
            all_tier2.append(asn)
        builder.tier2_by_region[region] = members
        builder.transit_by_region[region] = list(members)
    for i, a in enumerate(all_tier2):
        for b in all_tier2[i + 1 :]:
            same = graph.region_of(a) == graph.region_of(b)
            probability = (
                config.tier2_same_region_peer_probability
                if same
                else config.tier2_cross_region_peer_probability
            )
            if rng.random() < probability:
                builder.peer(a, b)

    # --- Mid-level transit. -------------------------------------------------
    mid_sizes = _region_sizes(mid_count, config.region_count)
    for region, quota in zip(builder.regions, mid_sizes):
        for _ in range(quota):
            asn = builder.new_asn()
            graph.add_as(asn, region=region)
            providers = _pick_mid_providers(builder, rng, region)
            for provider in providers:
                builder.link(provider, asn)
            builder.transit_by_region[region].append(asn)
    # Regional IXP-style peering among mid transits.
    for region in builder.regions:
        locals_ = [
            asn
            for asn in builder.transit_by_region[region]
            if asn not in builder.tier2_by_region[region]
        ]
        for asn in locals_:
            links = min(len(locals_) - 1, rng.randint(0, int(2 * config.mid_peer_mean)))
            for other in rng.sample(locals_, links + 1):
                if other != asn:
                    builder.peer(asn, other)

    # --- Deep access chains. -------------------------------------------------
    chain_tails: list[int] = []
    for region in builder.regions:
        tier2s = builder.tier2_by_region[region]
        for _ in range(config.chains_per_region):
            head = rng.choice(tier2s)
            previous = head
            for _ in range(config.chain_length):
                asn = builder.new_asn()
                graph.add_as(asn, region=region)
                builder.link(previous, asn)
                builder.transit_by_region[region].append(asn)
                previous = asn
            chain_tails.append(previous)

    # --- Stubs. ---------------------------------------------------------------
    stub_sizes = _region_sizes(stub_count, config.region_count)
    tail_cursor = 0
    stubs: list[int] = []
    for region, quota in zip(builder.regions, stub_sizes):
        for index in range(quota):
            asn = builder.new_asn()
            graph.add_as(asn, region=region)
            stubs.append(asn)
            # Guarantee the experiment roles: every chain tail gets one
            # single-homed stub (a depth-(chain_length+1) target), and a few
            # stubs sit directly beneath tier-1s (depth-1 targets).
            if index == 0 and tail_cursor < len(chain_tails):
                region_tails = [
                    tail
                    for tail in chain_tails
                    if graph.region_of(tail) == region
                ]
                if region_tails:
                    builder.link(region_tails[0], asn)
                    tail_cursor += 1
                    continue
            if (
                region != builder.island
                and rng.random() < config.stub_direct_tier1_probability
            ):
                provider_count = _sample_provider_count(rng, config)
                for provider in rng.sample(builder.tier1, provider_count):
                    builder.link(provider, asn)
                continue
            provider_count = _sample_provider_count(rng, config)
            providers = _pick_stub_providers(builder, rng, region, provider_count)
            for provider in providers:
                builder.link(provider, asn)

    # --- Sibling groups. -------------------------------------------------------
    sibling_pool = [asn for asn in stubs if graph.degree(asn) >= 1]
    group_count = int(len(sibling_pool) * config.sibling_fraction / 2)
    chosen = rng.sample(sibling_pool, min(len(sibling_pool), group_count * 2))
    for a, b in zip(chosen[0::2], chosen[1::2]):
        if graph.relationship(a, b) is None:
            graph.add_relationship(a, b, Relationship.SIBLING)

    graph.validate()
    return graph


def _sample_provider_count(rng, config: GeneratorConfig) -> int:
    roll = rng.random()
    cumulative = 0.0
    for index, probability in enumerate(config.stub_multihome_probabilities):
        cumulative += probability
        if roll < cumulative:
            return index + 1
    return len(config.stub_multihome_probabilities)


def _weighted_sample(
    rng, candidates: Sequence[int], weights: dict[int, int], count: int
) -> list[int]:
    """Sample *count* distinct candidates with degree-preferential weights."""
    chosen: list[int] = []
    pool = list(candidates)
    for _ in range(min(count, len(pool))):
        total = sum(weights.get(asn, 0) + 1 for asn in pool)
        roll = rng.random() * total
        acc = 0.0
        pick = pool[-1]
        for asn in pool:
            acc += weights.get(asn, 0) + 1
            if roll < acc:
                pick = asn
                break
        chosen.append(pick)
        pool.remove(pick)
    return chosen


def _pick_mid_providers(builder: _Builder, rng, region: str) -> list[int]:
    config = builder.config
    count = rng.randint(*config.mid_provider_range)
    providers: list[int] = []
    island = region == builder.island
    for _ in range(count):
        roll = rng.random()
        if island:
            # Insular region: transit is bought strictly inside the region,
            # so the regional tier-2 gateways carry all external traffic.
            pool = [
                asn
                for asn in builder.transit_by_region[region]
                if asn not in providers
            ]
            if pool:
                providers.extend(_weighted_sample(rng, pool, builder.degree_weight, 1))
            continue
        if roll < config.mid_transit_parent_probability:
            # Attach under an existing regional transit (creates depth).
            pool = [
                asn
                for asn in builder.transit_by_region[region]
                if asn not in providers
            ]
        elif roll < config.mid_transit_parent_probability + config.mid_tier1_parent_probability:
            pool = [asn for asn in builder.tier1 if asn not in providers]
        else:
            pool = [
                asn
                for asn in builder.tier2_by_region[region]
                if asn not in providers
            ]
        if not pool:
            continue
        providers.extend(_weighted_sample(rng, pool, builder.degree_weight, 1))
    if not providers:
        providers = [rng.choice(builder.tier2_by_region[region])]
    return providers


def _pick_stub_providers(
    builder: _Builder, rng, region: str, count: int
) -> list[int]:
    config = builder.config
    providers: list[int] = []
    for _ in range(count):
        if region == builder.island or rng.random() < config.stub_same_region_probability:
            pool = builder.transit_by_region[region]
        else:
            other = rng.choice(builder.regions)
            pool = builder.transit_by_region[other]
        pool = [asn for asn in pool if asn not in providers]
        if not pool:
            continue
        providers.extend(_weighted_sample(rng, pool, builder.degree_weight, 1))
    if not providers:
        providers = [rng.choice(builder.transit_by_region[region])]
    return providers


def default_address_plan(graph: ASGraph, *, seed: int | None = None) -> AddressPlan:
    """Allocate address space sized by (degree+1)² — heavy-tailed like RIR data."""
    weights = {asn: float(graph.degree(asn) + 1) ** 2 for asn in graph.asns()}
    return AddressPlan.build(weights, seed=seed if seed is not None else 2014)
