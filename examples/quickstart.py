#!/usr/bin/env python3
"""Quickstart: generate an internet-like topology and simulate one hijack.

Run::

    python examples/quickstart.py [--as-count 2000] [--seed 2014]

This walks the core API end to end: build a calibrated synthetic AS
topology, inspect its structure, pick interesting players, and simulate
both an origin hijack and a sub-prefix hijack with and without a deployed
defense.
"""

import argparse

from repro.attacks import HijackLab
from repro.core import resolve_roles
from repro.defense import Defense, top_degree_deployment
from repro.registry import PublicationState
from repro.topology import GeneratorConfig, generate_topology, summarize


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--as-count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args()

    # 1. A calibrated synthetic topology (drop in a real CAIDA file via
    #    repro.topology.load_caida for full-scale runs).
    graph = generate_topology(GeneratorConfig.scaled(args.as_count, seed=args.seed))
    stats = summarize(graph)
    print(f"topology: {stats.as_count} ASes, {stats.link_count} links, "
          f"{len(stats.tier1)} tier-1s, {stats.transit_count} transit "
          f"({stats.transit_fraction:.1%}), max depth {stats.max_depth}")

    # 2. The lab bundles the topology, address plan and routing engines.
    lab = HijackLab(graph, seed=args.seed)
    roles = resolve_roles(graph)
    target = roles.deep_target
    attacker = roles.aggressive_attacker
    print(f"\ntarget: AS{target} (deep, vulnerable); "
          f"attacker: AS{attacker} (aggressive, low depth)")

    # 3. An origin hijack: the attacker announces the target's own prefix.
    outcome = lab.origin_hijack(target, attacker)
    print(f"\norigin hijack of {outcome.scenario.prefix}:")
    print(f"  polluted ASes: {outcome.pollution_count} "
          f"({outcome.pollution_count / len(graph):.0%} of the topology)")
    print(f"  address space drawn to the attacker: {outcome.address_fraction:.0%}")

    # 4. A sub-prefix hijack wins everywhere unless origin validation
    #    blocks it (longest-prefix match has no legitimate competitor).
    subprefix = lab.subprefix_hijack(target, attacker)
    print(f"\nsub-prefix hijack of {subprefix.scenario.prefix}:")
    print(f"  polluted ASes: {subprefix.pollution_count}")

    # 5. Deploy origin validation at the 62 highest-degree ASes, with
    #    everyone's route origins published (RPKI/ROVER-style).
    publication = PublicationState.full(lab.plan)
    defense = Defense(
        strategy=top_degree_deployment(graph, 62),
        authority=publication.table(),
    )
    defended = lab.with_defense(defense)
    blocked_outcome = defended.origin_hijack(target, attacker)
    print(f"\nsame origin hijack with ROV at the top-62 core:")
    print(f"  polluted ASes: {blocked_outcome.pollution_count} "
          f"(was {outcome.pollution_count})")
    print(f"  blocked at {len(blocked_outcome.blocked_asns)} validating ASes")


if __name__ == "__main__":
    main()
