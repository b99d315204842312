"""The paper's Section III topology, as a contract on the builders.

PAPER.md promises a topology "calibrated to the same structural
statistics" as the paper's CAIDA snapshot. Those statistics and the band
a built graph must land in around each are written down once, beside
``PAPER_CONSTANTS`` in :mod:`repro.experiments.calibration` (which also
marks them in ``repro-bgp calibrate``); this module holds the builders
to them:

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

from repro.experiments.calibration import (
    PAPER_BANDS,
    PAPER_CONSTANTS,
    PAPER_DEGREE_TAIL,
    in_band,
)
from repro.topology.asgraph import ASGraph
from repro.topology.classify import depth_to_tier1, find_tier1, transit_asns
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.scalefixture import ScaleFixtureConfig, generate_scale_fixture

PAPER_AS_COUNT = int(PAPER_CONSTANTS["as_count"])
PAPER_LINKS = PAPER_CONSTANTS["link_count"]
PAPER_TRANSIT_FRACTION = PAPER_CONSTANTS["transit_fraction"]

SCALE_GAP = (
    "neither builder has the paper's shape at 42,697 ASes "
    "(ROADMAP item 1): ASes with a customer / degree >= 500, 300, 200, 100 — "
    "paper 6,318 / 62, 124, 166, 299; scalefixture 209 / 49, 87, 123, 172; "
    "generate_topology(GeneratorConfig.scaled(42_697)) 5,465 / 17, 659, 717, 717"
)


def check_scale_free_rows(graph: ASGraph) -> None:
    """The rows whose paper value does not depend on the AS count."""
    tier1 = find_tier1(graph)
    assert in_band(len(tier1), PAPER_CONSTANTS["tier1_count"], PAPER_BANDS["tier1_count"])
    fraction = len(transit_asns(graph)) / len(graph)
    assert in_band(fraction, PAPER_TRANSIT_FRACTION, PAPER_BANDS["transit_fraction"]), fraction
    depths = depth_to_tier1(graph)
    assert max(depths.values()) <= PAPER_CONSTANTS["max_depth"]
    assert any(depth == PAPER_CONSTANTS["deep_target_depth"] for depth in depths.values())


def check_every_row(graph: ASGraph) -> None:
    """Every Section III row, at the paper's AS count."""
    assert len(graph) == PAPER_AS_COUNT
    check_scale_free_rows(graph)
    assert in_band(graph.edge_count(), PAPER_LINKS, PAPER_BANDS["link_count"]), graph.edge_count()
    degrees = [graph.degree(asn) for asn in graph.asns()]
    tail = {
        threshold: sum(degree >= threshold for degree in degrees)
        for threshold in PAPER_DEGREE_TAIL
    }
    assert all(
        in_band(tail[threshold], paper, PAPER_BANDS["degree_tail"])
        for threshold, paper in PAPER_DEGREE_TAIL.items()
    ), tail


def test_bands_hold_the_paper_itself():
    """Each band contains the paper's own value, and only a band around it."""
    assert in_band(17, PAPER_CONSTANTS["tier1_count"], PAPER_BANDS["tier1_count"])
    assert not in_band(16, PAPER_CONSTANTS["tier1_count"], PAPER_BANDS["tier1_count"])
    transit = PAPER_BANDS["transit_fraction"]
    assert in_band(6_318 / PAPER_AS_COUNT, PAPER_TRANSIT_FRACTION, transit)
    assert not in_band(209 / PAPER_AS_COUNT, PAPER_TRANSIT_FRACTION, transit)
    assert in_band(PAPER_LINKS, PAPER_LINKS, PAPER_BANDS["link_count"])
    assert not in_band(181_439, PAPER_LINKS, PAPER_BANDS["link_count"])
    for paper in PAPER_DEGREE_TAIL.values():
        assert in_band(paper, paper, PAPER_BANDS["degree_tail"])
        assert not in_band(paper * 2, paper, PAPER_BANDS["degree_tail"])


def test_bands_are_the_papers_widths():
    """The bands are never widened: 15% transit, 10% links, 25% per
    degree threshold, and an exact tier-1 count."""
    assert dict(PAPER_BANDS) == {
        "tier1_count": 0.0, "transit_fraction": 0.15, "link_count": 0.10, "degree_tail": 0.25,
    }


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
