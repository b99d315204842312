#!/usr/bin/env python3
"""Regional hardening: the Section VII self-interest playbook, end to end.

A regional advisory board (the paper's New-Zealand scenario) wants to
protect its most vulnerable member without waiting for global BGP-security
deployment. The planner executes the paper's five steps — analyze, reduce
vulnerability, publish, filter, detect — and measures each action's effect
by simulation.

Run::

    python examples/regional_hardening.py [--region R03]
"""

import argparse

from repro.attacks import HijackLab
from repro.core import SelfInterestPlanner
from repro.topology import GeneratorConfig, generate_topology


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--as-count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--region", default=None,
                        help="region name (default: the smallest region, "
                             "like the paper's 187-AS New Zealand slice)")
    parser.add_argument("--target", type=int, default=None)
    args = parser.parse_args()

    graph = generate_topology(GeneratorConfig.scaled(args.as_count, seed=args.seed))
    regions = graph.regions()
    region = args.region or min(regions, key=lambda name: len(regions[name]))
    print(f"hardening region {region} ({len(regions[region])} ASes)\n")

    lab = HijackLab(graph, seed=args.seed)
    planner = SelfInterestPlanner(lab)
    plan = planner.plan(region, target_asn=args.target,
                        external_sample=150, probe_budget=4)
    print(plan.report())

    if plan.rehoming and plan.rehomed_impact:
        before = plan.baseline.regional_fraction
        after = plan.rehomed_impact.regional_fraction
        print(f"\npaper reference: re-homing cut regional pollution "
              f"60% -> 25%; this run: {before:.0%} -> {after:.0%}")


if __name__ == "__main__":
    main()
