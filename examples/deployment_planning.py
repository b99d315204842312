#!/usr/bin/env python3
"""Deployment planning: how much critical mass does blocking need?

Reproduces the Section V study for a target of your choice: evaluates the
paper's deployment ladder (random / tier-1 / top-degree cores), reports
the improvement factors, locates the non-linear crossover, and lists the
attacks that still get through the largest deployment.

Run::

    python examples/deployment_planning.py [--target ASN] [--sample 300]
"""

import argparse

from repro.attacks import HijackLab
from repro.core import compare_strategies, resolve_roles, top_potent_attacks
from repro.defense import paper_ladder
from repro.registry import PublicationState
from repro.topology import GeneratorConfig, generate_topology
from repro.util import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--as-count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--sample", type=int, default=300)
    parser.add_argument("--target", type=int, default=None,
                        help="defaults to the topology's deepest stub")
    args = parser.parse_args()

    graph = generate_topology(GeneratorConfig.scaled(args.as_count, seed=args.seed))
    lab = HijackLab(graph, seed=args.seed)
    target = args.target if args.target is not None else resolve_roles(graph).deep_target

    # The registries need the target's origins published for blocking to
    # work at all — Section VII's "critical step".
    publication = PublicationState.full(lab.plan)
    ladder = paper_ladder(graph, seed=args.seed)

    comparison = compare_strategies(
        lab, target, ladder, publication.table(),
        transit_only=True, sample=args.sample, seed=args.seed,
    )

    rows = []
    factors = comparison.improvement_factors()
    for evaluation in comparison.evaluations:
        stats = evaluation.profile.summary
        rows.append((
            evaluation.strategy.name,
            len(evaluation.strategy),
            round(stats.mean_successful, 1),
            stats.maximum,
            f"{factors[evaluation.strategy.name]:.1f}x",
        ))
    print(render_table(
        ("strategy", "deployers", "mean successful pollution", "max", "improvement"),
        rows,
        title=f"Incremental deployment against AS{target} "
              f"({args.sample} transit attackers)",
    ))

    crossover = comparison.crossover()
    if crossover is None:
        print("\nno crossover found — deployment never reached critical mass")
    else:
        print(f"\nnon-linear crossover at: {crossover.strategy.name} "
              f"({len(crossover.strategy)} deployers)")

    residual = top_potent_attacks(
        lab, target, ladder[-1], publication.table(),
        transit_only=True, sample=args.sample, seed=args.seed,
    )
    print()
    print(render_table(
        ("attacker ASN", "pollution", "degree", "depth"),
        [(a.attacker_asn, a.pollution_count, a.degree, a.depth) for a in residual],
        title=f"Top still-potent attacks under {ladder[-1].name}",
    ))


if __name__ == "__main__":
    main()
