"""Unit tests for experiment config, result store and the suite drivers.

The suite is exercised end-to-end on a small topology; the paper's
qualitative claims are asserted at 4,270 ASes in ``tests/claims/``.
"""

import json

import pytest

from repro.experiments.config import ExperimentConfig, ExperimentResult
from repro.experiments.store import ResultStore
from repro.experiments.suite import ExperimentSuite
from repro.topology.generator import GeneratorConfig

SMALL_CONFIG = ExperimentConfig(
    topology=GeneratorConfig.scaled(500, seed=21),
    seed=21,
    attacker_sample=60,
    detection_attacks=120,
    external_sample=30,
)


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> ExperimentSuite:
    config = ExperimentConfig(
        topology=SMALL_CONFIG.topology,
        seed=SMALL_CONFIG.seed,
        output_dir=tmp_path_factory.mktemp("results"),
        attacker_sample=SMALL_CONFIG.attacker_sample,
        detection_attacks=SMALL_CONFIG.detection_attacks,
        external_sample=SMALL_CONFIG.external_sample,
    )
    return ExperimentSuite(config)


class TestResultShape:
    def test_json_round_trip(self):
        result = ExperimentResult(
            experiment_id="x", title="T",
            summary={"a": 1},
            series={"s": [(1.0, 2.0)]},
            tables={"t": [{"k": "v"}]},
        )
        payload = json.loads(result.to_json())
        assert payload["summary"]["a"] == 1
        assert payload["series"]["s"] == [[1.0, 2.0]]

    def test_save_json(self, tmp_path):
        result = ExperimentResult(experiment_id="x", title="T")
        path = result.save_json(tmp_path)
        assert path.name == "x.json"
        assert json.loads(path.read_text())["title"] == "T"

class TestStore:
    def test_record_and_latest(self):
        with ResultStore() as store:
            result = ExperimentResult(
                experiment_id="fig2", title="T", summary={"m": 2.5},
                series={"curve": [(0.0, 10.0), (5.0, 3.0)]},
                tables={"rows": [{"asn": 7}]},
            )
            run_id = store.record(result, params={"n": 500})
            latest = store.latest("fig2")
            assert latest.run_id == run_id
            assert latest.params == {"n": 500}
            assert latest.summary == {"m": 2.5}
            assert store.series(run_id, "curve") == [(0.0, 10.0), (5.0, 3.0)]
            assert store.series_labels(run_id) == ["curve"]
            assert store.table(run_id, "rows") == [{"asn": 7}]

    def test_history_ordering(self):
        with ResultStore() as store:
            for index in range(3):
                store.record(ExperimentResult("e", "T", summary={"i": index}))
            history = store.history("e")
            assert [run.summary["i"] for run in history] == [0, 1, 2]

    def test_latest_missing(self):
        with ResultStore() as store:
            assert store.latest("nope") is None

    def test_file_backed(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with ResultStore(path) as store:
            store.record(ExperimentResult("e", "T"))
        with ResultStore(path) as store:
            assert store.latest("e") is not None


class TestSuiteDrivers:
    def test_fig2_series_and_summary(self, suite):
        result = suite.fig2()
        assert len(result.series) == 5
        assert result.artifacts and result.artifacts[0].exists()
        for label, stats in result.summary.items():
            if isinstance(stats, dict):
                assert stats["count"] > 0

    def test_fig4_shape_preserved(self, suite):
        assert suite.fig4().summary["shape_preserved"]

    def test_fig5_summary_has_ladder(self, suite):
        result = suite.fig5()
        assert "baseline" in result.summary
        assert "improvement_factors" in result.summary

    def test_tab1_rows(self, suite):
        result = suite.tab1()
        rows = result.tables["potent_attacks"]
        assert len(rows) <= 5
        for row in rows:
            assert {"attacker_asn", "pollution_count", "degree", "depth"} <= set(row)

    def test_fig7_histograms_sum_to_workload(self, suite):
        result = suite.fig7()
        for label, points in result.series.items():
            if label.endswith("/histogram"):
                assert sum(y for _, y in points) == suite.config.detection_attacks

    def test_tab3_rows_sorted(self, suite):
        rows = suite.tab3().tables["undetected"]
        sizes = [row["pollution_count"] for row in rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_nz_results_have_paper_reference(self, suite):
        rehoming = suite.nz_rehoming()
        assert "paper" in rehoming.summary
        assert 0 <= rehoming.summary["regional_fraction_after"] <= 1

    def test_workload_memoized(self, suite):
        assert suite.detection_workload() is suite.detection_workload()
        assert suite.fig7_comparison() is suite.fig7_comparison()
