"""The attack-taxonomy matrix at full CAIDA scale, on the batched lab.

The committed ``results/data/attack_matrix.json`` pins the 13-cell
(prefix axis × path axis) taxonomy grid against the deployment ladder
at the experiment suite's reduced scale. This module re-runs the same
grid — same rungs (undefended, smallest ladder rung, largest), same two
detector configurations — at the paper's actual 42,697-AS scale through
the batched array lab, and cross-checks the directional claims the
committed matrix records:

* the ROV type-1 blind spot (valid claimed origin: ``detected_roa`` <
  ``detected_full`` undefended) survives the scale jump;
* the path-aware detector never does worse than ROV alone, anywhere in
  the grid;
* the largest deployment rung never *increases* a cell's mean pollution
  over the undefended sweep.

The sweep is minutes-cheap but well beyond the per-PR budget, so the
module is marked ``scale`` and gated on ``REPRO_SCALE=1`` — the nightly
fuzz workflow sets it (see docs/testing.md).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.attacks.lab import HijackLab
from repro.defense.deployment import Defense
from repro.defense.strategies import paper_ladder
from repro.detection.detector import HijackDetector
from repro.detection.probes import top_degree_probes
from repro.detection.taxonomy import grid_cells
from repro.registry.neighbors import NeighborRegistry
from repro.registry.publication import PublicationState
from repro.topology.caida import dump_caida, load_caida_mmap
from repro.topology.scalefixture import ScaleFixtureConfig, generate_scale_fixture

pytestmark = [
    pytest.mark.scale,
    pytest.mark.skipif(
        not os.environ.get("REPRO_SCALE"),
        reason="full-CAIDA-scale test; set REPRO_SCALE=1 (nightly job) to run",
    ),
]

ATTACKS_PER_CELL = 8
BATCH_ORIGINS = 8
COMMITTED_MATRIX = (
    Path(__file__).resolve().parents[2] / "results" / "data" / "attack_matrix.json"
)


@pytest.fixture(scope="module")
def scale_matrix():
    """The full 13-cell × 3-rung grid swept once at 42,697 ASes."""
    from repro.core.roles import resolve_roles

    committed = json.loads(COMMITTED_MATRIX.read_text(encoding="utf-8"))

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-scale-matrix-") as tmp:
        path = Path(tmp) / "caida-scale.txt.gz"
        config = ScaleFixtureConfig()
        dump_caida(generate_scale_fixture(config), path)
        graph = load_caida_mmap(path)

    lab = HijackLab(graph, backend="array", batch_origins=BATCH_ORIGINS, seed=2014)
    target = resolve_roles(graph).deep_target
    ladder = paper_ladder(graph, seed=2014)
    rungs = [None, ladder[0], ladder[-1]]
    authority = PublicationState.full(lab.plan).table()
    probes = top_degree_probes(graph, count=62)
    detectors = {
        "roa": HijackDetector(probes=probes, authority=authority),
        "full": HijackDetector(
            probes=probes, authority=authority,
            neighbors=NeighborRegistry.from_graph(graph), relationships=graph,
        ),
    }
    rows: dict[tuple[str, str, str], dict[str, object]] = {}
    for kind, path_kind in grid_cells():
        for rung in rungs:
            defense = (
                Defense()
                if rung is None
                else Defense(strategy=rung, authority=authority)
            )
            outcomes = lab.with_defense(defense).sweep_target(
                target,
                transit_only=True,
                sample=ATTACKS_PER_CELL,
                seed=2014,
                kind=kind,
                path_kind=path_kind,
                forged_depth=2,
            )
            launched = [o for o in outcomes.values() if o.claimed_path]
            pollution = [o.pollution_count for o in launched]
            row: dict[str, object] = {
                "launched": len(launched),
                "mean_pollution": (
                    sum(pollution) / len(pollution) if pollution else 0.0
                ),
            }
            for name, detector in detectors.items():
                reports = [detector.observe(o) for o in launched]
                row[f"detected_{name}"] = (
                    sum(1 for r in reports if r.detected) / len(reports)
                    if reports
                    else 0.0
                )
            strategy = "none" if rung is None else rung.name
            rows[(kind.value, path_kind.value, strategy)] = row
    return committed, rows


def test_grid_covers_every_committed_cell(scale_matrix):
    """Same 13 cells × 3 strategies as the committed reduced-scale matrix."""
    committed, rows = scale_matrix
    committed_keys = {
        (row["kind"], row["path_kind"], row["strategy"])
        for row in committed["tables"]["matrix"]
    }
    assert set(rows) == committed_keys
    assert len(rows) == committed["summary"]["cells"] * 3


def test_rov_type1_blind_spot_survives_scale(scale_matrix):
    """The committed headline — ROV cannot classify a type-1 origin
    hijack, the path-aware detector can — holds at 42,697 ASes too."""
    committed, rows = scale_matrix
    assert committed["summary"]["rov_type1_blind_spot"] is True
    undefended = rows[("origin", "type-1", "none")]
    assert undefended["launched"] > 0
    assert undefended["detected_roa"] < undefended["detected_full"]


def test_path_aware_detector_dominates_rov(scale_matrix):
    """Nowhere in the grid does adding path awareness lose detections —
    the same dominance the committed matrix shows row for row."""
    committed, rows = scale_matrix
    for row in committed["tables"]["matrix"]:
        assert row["detected_full"] >= row["detected_roa"], row
    for key, row in rows.items():
        assert row["detected_full"] >= row["detected_roa"], key


def test_largest_rung_never_increases_pollution(scale_matrix):
    """The largest deployment rung's mean pollution stays at or below the
    undefended sweep in every cell, as in the committed matrix."""
    committed, rows = scale_matrix
    largest = committed["summary"]["strategies"][-1]
    for kind, path_kind in {(k, p) for k, p, _ in rows}:
        undefended = rows[(kind, path_kind, "none")]
        defended = rows[(kind, path_kind, largest)]
        assert defended["mean_pollution"] <= undefended["mean_pollution"] + 1e-9, (
            kind,
            path_kind,
        )
