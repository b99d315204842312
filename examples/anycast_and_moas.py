#!/usr/bin/env python3
"""Anycast, MOAS conflicts, and telling them apart from hijacks.

Control-plane detectors work by flagging origin conflicts — but multiple
origins for one prefix are often *legitimate* (anycast DNS, multi-org
prefixes). This walkthrough computes a real anycast catchment split with
the routing engine, then shows how published route-origin data separates
benign MOAS from hijacks, and what happens without it.

Run::

    python examples/anycast_and_moas.py
"""

import argparse

from repro.attacks import HijackLab
from repro.core import resolve_roles
from repro.detection import MoasVerdict, PathObservation, classify_observations
from repro.registry import PublicationState, RouteOriginAuthorization
from repro.topology import GeneratorConfig, generate_topology


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--as-count", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args()

    graph = generate_topology(GeneratorConfig.scaled(args.as_count, seed=args.seed))
    lab = HijackLab(graph, seed=args.seed)
    roles = resolve_roles(graph)

    # An anycast service announces one prefix from two sites: the deep
    # target's AS plus a site under the tier-2 hierarchy.
    site_a = roles.deep_target
    site_b = roles.tier2_depth1_stub
    prefix = lab.target_prefix(site_a)
    print(f"anycast prefix {prefix} announced from AS{site_a} and AS{site_b}")

    # Site B's announcement competes with site A's under the normal
    # preference rule, so every AS ends up routing to its nearest site.
    node_a, node_b = lab.view.node_of(site_a), lab.view.node_of(site_b)
    state = lab.engine.converge(node_b, base=lab.engine.converge(node_a))
    catchment_a = lab.view.expand(state.holders_of(node_a))
    catchment_b = lab.view.expand(state.holders_of(node_b))
    print(f"catchments: {len(catchment_a)} ASes route to site A, "
          f"{len(catchment_b)} to site B")

    # A monitor sees the MOAS conflict. With both origins published, the
    # alarm is suppressed; with none, operators get paged for nothing.
    publication = PublicationState.full(lab.plan)
    table = publication.table()
    table.add(RouteOriginAuthorization(prefix, site_b))

    def judge(authority, origins):
        # Each origin's own announcement: a single-hop claimed path.
        seen = [PathObservation((origin,)) for origin in origins]
        return classify_observations(prefix, seen, authority=authority)

    benign = judge(table, [site_a, site_b])
    print(f"\npublished MOAS verdict: {benign.verdict.value} "
          f"(alarm: {benign.alarm})")
    assert benign.verdict is MoasVerdict.LEGITIMATE_ANYCAST

    hijack = judge(table, [site_a, roles.aggressive_attacker])
    print(f"hijacker joins the MOAS: {hijack.verdict.value} "
          f"(invalid origins: {hijack.invalid_origins})")

    unpublished = judge(None, [site_a, site_b])
    print(f"without published data: {unpublished.verdict.value} "
          f"(alarm: {unpublished.alarm}) — the false-positive noise the "
          "paper's 'publish route origins' step eliminates")


if __name__ == "__main__":
    main()
