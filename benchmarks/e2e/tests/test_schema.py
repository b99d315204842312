"""BENCHMARK.json, the metric tables and the output of a tiny run of each
workload agree on the exact names the issue fixed."""

from __future__ import annotations

import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from benchmarks.e2e import generators, run, spec
from benchmarks.e2e.workloads import Harness

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

END_TO_END_NAMES = {
    "setup_s", "attacks_per_s", "rib_prefixes_per_s", "events_per_s",
    "verdict_latency_p50_ms", "verdict_latency_p95_ms", "cpu_s_per_kop",
    "peak_rss_mb", "failed_frac",
}

TINY = {
    "sweep_scale": {
        "as_count": 1500, "target_depths": (1, 2, 3), "ladder_depth": 2, "sample": 4,
        "target_sets": 2,
    },
    "trace_replay": {
        "as_count": 400, "rib_prefixes": 24, "updates_per_s": 300, "batch_window": 0.0,
    },
    "trace_storm": {
        "as_count": 400, "rib_prefixes": 12, "lines_per_s": 6000, "flap_share": 0.02,
        "malformed": 4, "batch_window": 0.05,
    },
    "daemon_http": {
        "as_count": 400, "tenants": 4, "scenarios_per_s": 120, "open_rate": 200,
        "trace_rates": (100, 200, 400),
    },
}


def test_benchmark_json_is_what_the_tables_imply():
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert document == spec.benchmark_json(document["run_seconds"])
    assert document["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in document["workloads"]] == [
        "sweep_scale", "trace_replay", "trace_storm", "daemon_http",
    ]


def test_benchmark_json_is_inside_the_contract_limits():
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = (
        [w["name"] for w in document["workloads"]]
        + [m["name"] for m in document["end_to_end"]]
        + [m["name"] for m in document["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_the_suite_reports_the_nine_named_end_to_end_metrics():
    assert {metric.name for metric in spec.END_TO_END} == END_TO_END_NAMES
    assert {m.name for m in spec.end_to_end_for("sweep_scale")} == {
        "setup_s", "attacks_per_s", "cpu_s_per_kop", "peak_rss_mb", "failed_frac",
    }
    assert {m.name for m in spec.end_to_end_for("daemon_http")} == {
        "setup_s", "events_per_s", "verdict_latency_p50_ms", "verdict_latency_p95_ms",
        "cpu_s_per_kop", "peak_rss_mb", "failed_frac",
    }
    for name in ("bgp.converge_delta.self_s", "stream.replay.noop_ratio",
                 "service.api.latency_p95_ms.r400", "loadgen.late_p95_ms",
                 "trace.coverage_frac", "trace.overhead_frac"):
        assert name in spec.PER_LAYER_NAMES


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    size = TINY["trace_storm"]

    def make(name: str, seed: int) -> str:
        directory = tmp_path / name
        directory.mkdir()
        inputs = generators.make_storm(
            directory, seed, size["as_count"], size["rib_prefixes"], 2000,
            size["flap_share"], size["malformed"],
        )
        assert len(inputs.kinds) == 2000
        assert inputs.kinds.count(generators.MALFORMED) == size["malformed"]
        assert inputs.kinds.count(generators.FLAP_WITHDRAW) == inputs.kinds.count(
            generators.FLAP_ANNOUNCE
        )
        return generators.files_digest(inputs.files)

    assert make("a", 5) == make("b", 5)
    assert make("c", 6) != make("a2", 5)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_a_tiny_run_is_correct_and_reports_exactly_the_named_metrics(workload, tmp_path):
    harness = Harness(ROOT, tmp_path, TINY)
    result = harness.run(workload, seed=3, seconds=1.0, trace=True)
    assert result.correct and result.failed == 0, result.checks
    assert result.attempted >= 1
    assert set(result.end_to_end) == {m.name for m in spec.end_to_end_for(workload)}
    assert set(result.samples) == set(result.end_to_end)
    assert result.end_to_end["failed_frac"] == 0.0
    assert all(
        value > 0 for name, value in result.end_to_end.items()
        if name not in ("failed_frac", "verdict_latency_p95_ms")
    )
    assert tuple(result.per_layer) == spec.PER_LAYER_NAMES
    assert result.checks["traced_digest_equal"] is True
    assert 0 < result.per_layer["trace.coverage_frac"] <= 1
    assert (tmp_path / f"trace-{workload}.jsonl").stat().st_size > 0
    assert not list(tmp_path.glob("work-*"))  # generated inputs are cleaned up

    for trace in (False, True):
        line = json.loads(run.contract_line(asdict(result), trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        expected = (
            spec.PER_LAYER_NAMES if trace
            else tuple(name for name, *_ in spec.CONTRACT_END_TO_END)
        )
        assert tuple(line["metrics"]) == expected
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())
