"""Unit tests for the observability layer (repro.obs).

Covers the Metrics sink itself and the instrumentation threaded through
the engine/lab/cache hot paths.
"""

import json

import pytest

from repro.attacks.lab import HijackLab
from repro.obs import NULL_METRICS, Metrics
from repro.obs.metrics import NullMetrics, SpanStats


class TestMetrics:
    def test_count_accumulates(self):
        metrics = Metrics()
        metrics.count("engine.messages")
        metrics.count("engine.messages", 41)
        assert metrics.counters["engine.messages"] == 42

    def test_gauge_overwrites(self):
        metrics = Metrics()
        metrics.gauge("cache.size", 2)
        metrics.gauge("cache.size", 4)
        assert metrics.gauges["cache.size"] == 4

    def test_observe_aggregates_span_stats(self):
        metrics = Metrics()
        for seconds in (0.5, 1.5, 1.0):
            metrics.observe("phase", seconds)
        stats = metrics.spans["phase"]
        assert stats.count == 3
        assert stats.total_s == pytest.approx(3.0)
        assert stats.min_s == pytest.approx(0.5)
        assert stats.max_s == pytest.approx(1.5)
        assert stats.mean_s == pytest.approx(1.0)

    def test_span_uses_injected_clock(self):
        ticks = iter([10.0, 13.5])
        metrics = Metrics(clock=lambda: next(ticks))
        with metrics.span("work"):
            pass
        assert metrics.spans["work"].total_s == pytest.approx(3.5)

    def test_span_records_on_exception(self):
        ticks = iter([0.0, 1.0])
        metrics = Metrics(clock=lambda: next(ticks))
        with pytest.raises(RuntimeError):
            with metrics.span("work"):
                raise RuntimeError("boom")
        assert metrics.spans["work"].count == 1

    def test_snapshot_is_json_serializable_and_detached(self):
        metrics = Metrics()
        metrics.count("a")
        metrics.gauge("b", 2.5)
        metrics.observe("c", 0.1)
        snapshot = metrics.snapshot()
        json.dumps(snapshot)  # must not raise
        snapshot["counters"]["a"] = 99
        assert metrics.counters["a"] == 1

    def test_empty_span_stats_as_dict(self):
        stats = SpanStats()
        assert stats.as_dict() == {
            "count": 0, "total_s": 0.0, "mean_s": 0.0, "min_s": 0.0, "max_s": 0.0,
        }

    def test_write_json(self, tmp_path):
        metrics = Metrics()
        metrics.count("x", 7)
        path = metrics.write_json(tmp_path / "nested" / "metrics.json")
        assert json.loads(path.read_text())["counters"]["x"] == 7


class TestNullMetrics:
    def test_records_nothing(self):
        sink = NullMetrics()
        sink.count("a")
        sink.gauge("b", 1)
        sink.observe("c", 0.5)
        with sink.span("d"):
            pass
        assert sink.snapshot() == {"counters": {}, "gauges": {}, "spans": {}}

    def test_shared_instance_is_disabled(self):
        assert NULL_METRICS.enabled is False
        assert Metrics().enabled is True


class TestInstrumentation:
    def test_engine_counters_through_lab(self, mini_graph):
        metrics = Metrics()
        lab = HijackLab(mini_graph, seed=1, metrics=metrics)
        lab.origin_hijack(50, 60)
        counters = metrics.counters
        assert counters["engine.convergences"] >= 1
        assert counters["engine.messages"] > 0
        assert counters["engine.routes_installed"] > 0
        assert counters["engine.convergence_rounds"] > 0

    def test_lab_sweep_spans(self, mini_graph):
        metrics = Metrics()
        lab = HijackLab(mini_graph, seed=1, metrics=metrics)
        lab.sweep_target(50, transit_only=True, seed=1)
        assert metrics.counters["lab.sweeps"] == 1
        assert metrics.spans["lab.sweep_target"].count == 1

    def test_cache_counters_mirror_stats(self, mini_graph):
        metrics = Metrics()
        lab = HijackLab(mini_graph, seed=1, metrics=metrics)
        cache = lab.cache
        lab.random_attacks(6, seed=1)
        lab.random_attacks(6, seed=1)
        assert metrics.counters["cache.hits"] == cache.stats.hits
        assert metrics.counters["cache.misses"] == cache.stats.misses
        assert metrics.counters.get("cache.evictions", 0) == cache.stats.evictions

    def test_default_lab_uses_null_sink(self, mini_graph):
        lab = HijackLab(mini_graph, seed=1)
        assert lab.metrics is NULL_METRICS
        lab.origin_hijack(50, 60)  # must not record anywhere
        assert NULL_METRICS.snapshot() == {"counters": {}, "gauges": {}, "spans": {}}
