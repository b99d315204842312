"""Shared fixtures.

Two topology tiers keep the suite fast:

* ``mini_graph`` — a dozen hand-placed ASes whose routing outcomes are
  small enough to verify by hand in the simulator/engine unit tests;
* ``medium_graph`` / ``medium_lab`` — a ~900-AS generated topology
  (session-scoped) used by analysis-layer and integration tests.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.attacks.lab import HijackLab
from repro.topology.asgraph import ASGraph
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.relationships import Relationship
from repro.topology.view import RoutingView


# Hypothesis profiles: "default" for interactive/CI runs, "fuzz" for the
# nightly long-budget job (.github/workflows/fuzz.yml). Individual tests
# scale their example counts through tests.strategies.example_budget
# (REPRO_FUZZ_MULTIPLIER); the profile only adjusts reporting knobs so a
# CI failure is reproducible from the printed blob + uploaded database.
settings.register_profile("default", deadline=None)
settings.register_profile(
    "fuzz",
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


def build_mini_graph() -> ASGraph:
    """A hand-verifiable topology.

    ::

        tier-1:     1 ===== 2          (=== peering)
                   /|        \\
        tier-2:   10          20       (10 -- 20 peer as well)
                  |           |
        mid:      30          40
                  |           |
        stub:     50          60
        stub:     70 (customer of 1)   # depth-1 stub
        stub:     80 (customer of 10 and 20)  # multihomed depth-1

    Depth (tier-1/tier-2 anchored): 10,20 → 0; 30,40,70,80 → 1; 50,60 → 2.
    """
    graph = ASGraph()
    for asn in (1, 2):
        graph.add_as(asn, tier1=True)
    for asn, region in ((10, "west"), (20, "east"), (30, "west"), (40, "east"),
                        (50, "west"), (60, "east"), (70, "west"), (80, "east")):
        graph.add_as(asn, region=region)
    graph.add_relationship(1, 2, Relationship.PEER)
    graph.add_relationship(1, 10, Relationship.CUSTOMER)
    graph.add_relationship(2, 20, Relationship.CUSTOMER)
    graph.add_relationship(10, 20, Relationship.PEER)
    graph.add_relationship(10, 30, Relationship.CUSTOMER)
    graph.add_relationship(20, 40, Relationship.CUSTOMER)
    graph.add_relationship(30, 50, Relationship.CUSTOMER)
    graph.add_relationship(40, 60, Relationship.CUSTOMER)
    graph.add_relationship(1, 70, Relationship.CUSTOMER)
    graph.add_relationship(10, 80, Relationship.CUSTOMER)
    graph.add_relationship(20, 80, Relationship.CUSTOMER)
    return graph


@pytest.fixture
def mini_graph() -> ASGraph:
    return build_mini_graph()


@pytest.fixture
def mini_view(mini_graph: ASGraph) -> RoutingView:
    return RoutingView.from_graph(mini_graph)


MEDIUM_CONFIG = GeneratorConfig.scaled(900, seed=7)


@pytest.fixture(scope="session")
def medium_graph() -> ASGraph:
    return generate_topology(MEDIUM_CONFIG)


@pytest.fixture(scope="session")
def medium_lab(medium_graph: ASGraph) -> HijackLab:
    return HijackLab(medium_graph, seed=7)
