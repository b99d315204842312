"""Self-time arithmetic, run ids and iterator layers of the trace recorder."""

from __future__ import annotations

import json
import sys
import types

from benchmarks.e2e import tracing


class FakeClock:
    """Returns the scripted times in order, one per call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self) -> float:
        return next(self.times)


def test_self_time_is_duration_minus_child_cover():
    # root 0..10 holds a 1..4 (which holds c 2..3) and b 5..9.
    recorder = tracing.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    recorder.begin("root")
    recorder.begin("a")
    recorder.begin("c")
    recorder.end()
    recorder.end()
    recorder.begin("b")
    recorder.end()
    recorder.end()
    assert recorder.self_s == {"c": 1, "a": 2, "b": 4, "root": 3}
    assert recorder.calls == {"c": 1, "a": 1, "b": 1, "root": 1}
    assert sum(recorder.self_s.values()) == 10  # self times partition the wall
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["c"].parent == by_name["a"].id
    assert by_name["a"].parent == by_name["root"].id
    assert by_name["root"].parent == -1
    assert tracing.coverage(recorder.take(), "root") == 0.7


def test_repeated_names_accumulate_and_take_resets():
    recorder = tracing.Recorder(clock=FakeClock([0, 2, 3, 7]))
    for _ in range(2):
        recorder.begin("layer")
        recorder.end()
    summary = recorder.take()
    assert summary["calls"] == {"layer": 2}
    assert summary["self_s"] == {"layer": 6}
    assert recorder.calls == {} and recorder.self_s == {}


def test_spans_under_the_root_share_a_run_id_with_what_they_cause():
    recorder = tracing.Recorder(clock=FakeClock(range(100)))
    recorder.begin("window")
    for _ in range(2):
        recorder.begin("submit")
        recorder.begin("flush")
        recorder.end()
        recorder.end()
    recorder.end()
    runs = {(span.name, span.run) for span in recorder.spans}
    assert runs == {("window", 1), ("submit", 2), ("flush", 2), ("submit", 3), ("flush", 3)}


def test_iterator_layer_records_one_span_per_next_nested_in_its_consumer():
    recorder = tracing.Recorder(clock=FakeClock(range(100)))

    def records():
        yield from ("r1", "r2")

    def compiled():
        for record in tracing.spans_per_next(recorder, "records.next", records()):
            yield record.upper()

    out = list(tracing.spans_per_next(recorder, "compiler.next", compiled()))
    assert out == ["R1", "R2"]
    # Two items plus the call that finds the iterator exhausted.
    assert recorder.calls == {"records.next": 3, "compiler.next": 3}
    parents = {span.id: span.parent for span in recorder.spans}
    names = {span.id: span.name for span in recorder.spans}
    for span in recorder.spans:
        if span.name == "records.next":
            assert names[parents[span.id]] == "compiler.next"


def test_install_wraps_functions_methods_classmethods_and_iterators():
    module = types.ModuleType("bench_e2e_fixture_layers")

    class Layer:
        def work(self, items):
            return len(items)

        @classmethod
        def build(cls):
            return cls()

        def __iter__(self):
            yield from (1, 2, 3)

    def helper(value):
        return value + 1

    module.Layer, module.helper = Layer, helper
    sys.modules[module.__name__] = module
    try:
        recorder = tracing.Recorder()
        tracing.install(recorder, (
            tracing.Traced("layer.work", f"{module.__name__}:Layer.work",
                           count=("layer.items", lambda _self, items: len(items))),
            tracing.Traced("layer.build", f"{module.__name__}:Layer.build"),
            tracing.Traced("layer.next", f"{module.__name__}:Layer.__iter__", "iter"),
            tracing.Traced("helper", f"{module.__name__}:helper"),
        ))
        layer = module.Layer.build()
        assert isinstance(layer, Layer)
        assert layer.work([1, 2, 3]) == 3 and layer.work([4]) == 1
        assert list(layer) == [1, 2, 3]
        assert module.helper(1) == 2
        assert recorder.calls == {
            "layer.build": 1, "layer.work": 2, "layer.next": 4, "helper": 1,
        }
        assert recorder.counts == {"layer.items": 4}
    finally:
        del sys.modules[module.__name__]


def test_a_raising_call_still_closes_its_span():
    recorder = tracing.Recorder()
    traced = tracing.Traced("boom", "unused:unused")

    def boom():
        raise ValueError("x")

    wrapped = tracing._wrap_call(recorder, traced, boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert recorder.calls == {"boom": 1} and not recorder._stack


def test_trace_file_keeps_the_first_spans_and_records_the_total(tmp_path):
    recorder = tracing.Recorder(clock=FakeClock(range(100)), keep=2)
    for _ in range(3):
        recorder.begin("layer")
        recorder.end()
    path = tmp_path / "trace.jsonl"
    recorder.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines[:-1]] == ["layer", "layer"]
    assert set(lines[0]) == {"id", "name", "start", "end", "parent", "run"}
    assert lines[-1] == {"spans_recorded": 3, "spans_kept": 2}
    assert recorder.calls == {"layer": 3}  # aggregates cover every span
