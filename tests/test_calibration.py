"""Unit tests for the calibration report and its suite-extension driver."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.attacks.lab import HijackLab
from repro.cli import main
from repro.experiments.calibration import PAPER_CONSTANTS, calibrate

@pytest.fixture(scope="module")
def report(medium_lab: HijackLab):
    return calibrate(medium_lab, agreement_samples=5, path_samples=30, seed=1)


class TestCalibration:
    def test_structural_numbers_match_summary(self, report, medium_graph):
        assert report.as_count == len(medium_graph)
        assert report.link_count == medium_graph.edge_count()
        assert report.links_per_as == pytest.approx(
            medium_graph.edge_count() / len(medium_graph)
        )

    def test_engines_agree_perfectly(self, report):
        assert report.engine_simulator_agreement == 1.0
        assert report.agreement_samples == 5

    def test_path_inflation_is_mild(self, report):
        # Valley-free routing on an internet-shaped graph barely inflates
        # path lengths.
        assert 1.0 <= report.path_inflation_mean < 1.5
        assert report.path_samples > 0

    def test_path_inflation_pinned(self, report):
        # Recorded with a third-party shortest-path routine before the
        # in-tree BFS replaced it: hop counts are integers, so the mean
        # is bit-identical.
        assert report.path_inflation_mean == 1.0216666666666667
        assert report.path_samples == 30

    def test_healthy(self, report):
        assert report.healthy()

    def test_render_mentions_paper_references(self, report):
        text = report.render()
        assert "62%" in text
        assert "42697" in text
        assert "healthy" in text

    def test_render_marks_rows_in_or_out_of_their_band(self, report):
        def marks(report):
            rows = [re.split(r"\s{2,}", line.strip()) for line in report.render().splitlines()[3:]]
            return {row[0]: row[3] if len(row) == 4 else "" for row in rows}

        here = marks(report)
        assert here["tier-1 ASes"] == ("in" if report.tier1_count == 17 else "OUT")
        assert here["transit fraction"] in ("in", "OUT")
        assert here["max depth to tier-1"] in ("in", "OUT")
        # Links and the degree tail have a band only at the paper's size.
        assert here["links"] == ""
        assert not any(label.startswith("ASes of degree") for label in here)
        paper_size = marks(replace(
            report, as_count=42_697, link_count=139_156 * 2, tier1_count=17,
            degree_tail={500: 62, 300: 124, 200: 166, 100: 299 * 2},
        ))
        assert paper_size["links"] == "OUT"
        assert paper_size["tier-1 ASes"] == "in"
        assert [paper_size[f"ASes of degree >= {t}"] for t in (500, 300, 200, 100)] == [
            "in", "in", "in", "OUT",
        ]

    def test_paper_constants_pinned(self):
        assert PAPER_CONSTANTS["tier1_count"] == 17
        assert PAPER_CONSTANTS["transit_fraction"] == pytest.approx(0.1479, abs=1e-3)

    def test_cli_calibrate(self, capsys):
        assert main([
            "calibrate", "--as-count", "500",
            "--agreement-samples", "3", "--path-samples", "15",
        ]) == 0
        assert "Calibration report" in capsys.readouterr().out

    def test_calibrate_runs_without_networkx(self):
        # numpy is the only runtime dependency: a None entry makes any
        # ``import networkx`` raise ImportError in the child interpreter.
        code = (
            "import sys; sys.modules['networkx'] = None\n"
            "from repro.cli import main\n"
            "sys.exit(main(['calibrate', '--as-count', '300',"
            " '--agreement-samples', '2', '--path-samples', '8']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert result.returncode == 0, result.stderr
        assert "Calibration report" in result.stdout


class TestSubprefixExtensionDriver:
    def test_ext_subprefix_summary(self, tmp_path):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.suite import ExperimentSuite
        from repro.topology.generator import GeneratorConfig

        suite = ExperimentSuite(ExperimentConfig(
            topology=GeneratorConfig.scaled(500, seed=23),
            seed=23,
            output_dir=tmp_path,
            attacker_sample=40,
            detection_attacks=50,
        ))
        result = suite.ext_subprefix()
        summary = result.summary
        assert summary["subprefix_hijack"]["mean"] >= summary["origin_hijack"]["mean"]
        assert summary["subprefix_dominates_fraction"] >= 0.9
        assert (
            summary["subprefix_with_core299_rov"]["mean"]
            < summary["subprefix_hijack"]["mean"]
        )
