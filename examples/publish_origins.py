#!/usr/bin/env python3
"""Publishing route origins: why participation matters.

Walks the registry layer: publish one target's origins, then demonstrate
the paper's core Section VII point — an *unpublished* target cannot be
protected no matter how many ASes validate.

Run::

    python examples/publish_origins.py
"""

import argparse

from repro.attacks import HijackLab
from repro.core import resolve_roles
from repro.defense import Defense, top_degree_deployment
from repro.registry import PublicationState, ValidationState
from repro.topology import GeneratorConfig, generate_topology


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--as-count", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args()

    graph = generate_topology(GeneratorConfig.scaled(args.as_count, seed=args.seed))
    lab = HijackLab(graph, seed=args.seed)
    roles = resolve_roles(graph)
    target = roles.deep_target
    attacker = roles.aggressive_attacker
    prefix = lab.target_prefix(target)

    print(f"target AS{target} originates {prefix}")

    publication = PublicationState.with_participants(lab.plan, [target])
    legit = publication.validate(prefix, target)
    bogus = publication.validate(prefix, attacker)
    print(f"legitimate announcement -> {legit.value}, "
          f"hijack by AS{attacker} -> {bogus.value}")

    deployment = top_degree_deployment(graph, 62)

    # Case 1: the target published — validators block the hijack.
    defended = lab.with_defense(
        Defense(strategy=deployment, authority=publication.table())
    )
    protected = defended.origin_hijack(target, attacker)

    # Case 2: nobody published — the same validators see NOT_FOUND and
    # must let the announcement through.
    empty = PublicationState.with_participants(lab.plan, [])
    unprotected = lab.with_defense(
        Defense(strategy=deployment, authority=empty.table())
    ).origin_hijack(target, attacker)

    baseline = lab.origin_hijack(target, attacker)
    print(f"\nhijack pollution with {len(deployment)} validating ASes:")
    print(f"  target published:   {protected.pollution_count} ASes")
    print(f"  target unpublished: {unprotected.pollution_count} ASes "
          f"(baseline without any defense: {baseline.pollution_count})")
    assert unprotected.pollution_count == baseline.pollution_count
    print("\nunpublished == baseline: publishing is the critical step "
          "(paper, Section VII)")

    # The sub-prefix case needs maxLength-aware ROAs: the exact-length
    # publication makes any more-specific INVALID.
    sub = next(prefix.subnets())
    verdict = publication.validate(sub, attacker)
    assert verdict is ValidationState.INVALID
    print(f"sub-prefix {sub} announced by AS{attacker}: {verdict.value} "
          "(blockable everywhere it meets a validator)")


if __name__ == "__main__":
    main()
