"""The paper's Section III topology, as a contract on the builders.

PAPER.md promises a topology "calibrated to the same structural
statistics" as the paper's CAIDA snapshot. This module writes those
statistics down once, each beside the band a built graph must land in,
and holds the builders to them:

- at 4,270 ASes (the default synthetic size) the scale-free rows —
  transit fraction, depth and tier-1 count — on every run;
- at 42,697 ASes every row, for both builders, under the ``scale``
  marker (``REPRO_SCALE=1``, nightly). Neither builder meets the degree
  rows there today, so those runs are strict expected failures: the day
  one passes, the marker must go.

The bands were chosen from the paper's numbers alone, before any builder
was run against them; never widen one to make a builder pass.
"""

from __future__ import annotations

import os

import pytest

from repro.topology.asgraph import ASGraph
from repro.topology.classify import depth_to_tier1, find_tier1, transit_asns
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.scalefixture import ScaleFixtureConfig, generate_scale_fixture

# -- the paper's Section III numbers, and the bands around them ------------

PAPER_AS_COUNT = 42_697
PAPER_TIER1 = 17  # exact
PAPER_TRANSIT_FRACTION = 0.148  # 6,318 of 42,697 ASes have a customer
TRANSIT_BAND = 0.15  # relative: 12.6%–17.0%
PAPER_MAX_DEPTH = 7  # provider hops to the tier-1 clique, at most
PAPER_DEEP_TARGET = 5  # Fig. 2's deepest targets sit this far down
PAPER_LINKS = 139_156
LINKS_BAND = 0.10  # relative
PAPER_DEGREE_TAIL = {500: 62, 300: 124, 200: 166, 100: 299}  # ASes of degree ≥ key
DEGREE_BAND = 0.25  # relative, per threshold

SCALE_GAP = (
    "neither builder has the paper's shape at 42,697 ASes "
    "(ROADMAP item 1): ASes with a customer / degree >= 500, 300, 200, 100 — "
    "paper 6,318 / 62, 124, 166, 299; scalefixture 209 / 49, 87, 123, 172; "
    "generate_topology(GeneratorConfig.scaled(42_697)) 5,465 / 17, 659, 717, 717"
)


def _within(value: float, paper: float, band: float) -> bool:
    return paper * (1 - band) <= value <= paper * (1 + band)


def check_scale_free_rows(graph: ASGraph) -> None:
    """The rows whose paper value does not depend on the AS count."""
    tier1 = find_tier1(graph)
    assert len(tier1) == PAPER_TIER1
    fraction = len(transit_asns(graph)) / len(graph)
    assert _within(fraction, PAPER_TRANSIT_FRACTION, TRANSIT_BAND), fraction
    depths = depth_to_tier1(graph)
    assert max(depths.values()) <= PAPER_MAX_DEPTH
    assert any(depth == PAPER_DEEP_TARGET for depth in depths.values())


def check_every_row(graph: ASGraph) -> None:
    """Every Section III row, at the paper's AS count."""
    assert len(graph) == PAPER_AS_COUNT
    check_scale_free_rows(graph)
    assert _within(graph.edge_count(), PAPER_LINKS, LINKS_BAND), graph.edge_count()
    degrees = [graph.degree(asn) for asn in graph.asns()]
    tail = {
        threshold: sum(degree >= threshold for degree in degrees)
        for threshold in PAPER_DEGREE_TAIL
    }
    assert all(
        _within(tail[threshold], paper, DEGREE_BAND)
        for threshold, paper in PAPER_DEGREE_TAIL.items()
    ), tail


def test_bands_hold_the_paper_itself():
    """Each band contains the paper's own value, and only a band around it."""
    assert _within(PAPER_TRANSIT_FRACTION, PAPER_TRANSIT_FRACTION, TRANSIT_BAND)
    assert not _within(209 / PAPER_AS_COUNT, PAPER_TRANSIT_FRACTION, TRANSIT_BAND)
    assert _within(PAPER_LINKS, PAPER_LINKS, LINKS_BAND)
    assert not _within(181_439, PAPER_LINKS, LINKS_BAND)
    for paper in PAPER_DEGREE_TAIL.values():
        assert _within(paper, paper, DEGREE_BAND)
        assert not _within(paper * 2, paper, DEGREE_BAND)


def test_generator_meets_the_scale_free_rows_at_4270():
    check_scale_free_rows(generate_topology(GeneratorConfig()))


scale = [
    pytest.mark.scale,
    pytest.mark.skipif(
        not os.environ.get("REPRO_SCALE"),
        reason="full-CAIDA-scale test; set REPRO_SCALE=1 (nightly job) to run",
    ),
    pytest.mark.xfail(strict=True, reason=SCALE_GAP),
]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(
            lambda: generate_scale_fixture(ScaleFixtureConfig()),
            id="scalefixture",
            marks=scale,
        ),
        pytest.param(
            lambda: generate_topology(GeneratorConfig.scaled(PAPER_AS_COUNT)),
            id="generator",
            marks=scale,
        ),
    ],
)
def test_builder_meets_every_row_at_42697(build):
    check_every_row(build())
