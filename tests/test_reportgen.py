"""Unit tests for EXPERIMENTS.md generation."""

from pathlib import Path

from repro.experiments.config import ExperimentResult
from repro.experiments.reportgen import PAPER_REFERENCE, render_experiments_markdown


def make_result() -> ExperimentResult:
    return ExperimentResult(
        experiment_id="fig7",
        title="Detector configurations vs random attacks",
        summary={
            "attacks": 800,
            "tier1-17": {
                "missed": 270, "miss_rate": 0.3375,
                "mean_pollution": 400.0, "max_pollution": 1900,
            },
        },
        tables={"undetected": [{"attacker_asn": 5, "pollution_count": 900}]},
    )


class TestPaperReference:
    def test_every_suite_experiment_has_a_reference(self):
        expected = {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "tab1", "tab2", "tab3", "tab4", "tab5",
            "nz_rehoming", "nz_filter",
        }
        assert expected <= set(PAPER_REFERENCE)

    def test_references_have_claims(self):
        for experiment_id, reference in PAPER_REFERENCE.items():
            assert reference.get("claim"), experiment_id


class TestRendering:
    def test_contains_paper_claim_and_measurements(self):
        text = render_experiments_markdown([make_result()])
        assert "FIG7" in text
        assert "miss 34%" in text  # the paper claim
        assert "33.8%" in text or "33.7%" in text  # the measured rate
        assert "attacker_asn=5" in text

    def test_context_line(self):
        text = render_experiments_markdown([make_result()], context={"as_count": 4270})
        assert "as_count=4270" in text

    def test_provenance_names_the_writer_and_the_claims(self):
        provenance = render_experiments_markdown([]).splitlines()[2]
        assert "`repro-bgp report`" in provenance
        assert "`tests/claims/`" in provenance
        committed = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
        assert committed.read_text(encoding="utf-8").splitlines()[2] == provenance

    def test_unknown_experiment_still_renders(self):
        result = ExperimentResult(experiment_id="custom", title="X", summary={"k": 1})
        text = render_experiments_markdown([result])
        assert "CUSTOM" in text and "`k`: 1" in text
