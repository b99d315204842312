"""The trace recorder and the wrappers the traced run installs.

Spans are recorded from the benchmark's side of the fence: the traced
run replaces the public callables listed in ``adapters.TRACED`` with
timing wrappers, so no file under ``src/`` knows it is being traced.
A span is ``(id, name, start, end, parent id, run id)``; spans opened
directly under the window's root span share a run id with everything
they cause. A layer's *self time* is its span's duration minus the part
its child spans cover, accumulated per span name as spans close, so the
aggregate costs O(1) memory however many spans a run produces. The first
``keep`` raw spans are kept for ``trace-<workload>.jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple


WINDOW = "window"  # root span of a measured window


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    run: int


class Recorder:
    """In-memory span store with per-name call counts and self time."""

    def __init__(
        self, *, clock: Callable[[], float] = time.perf_counter, keep: int = 200_000
    ) -> None:
        self.clock = clock
        self.keep = keep
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.total = 0
        self._run = 0
        self._stack: list[list] = []  # [name, start, child seconds, id, run]

    def begin(self, name: str) -> None:
        stack = self._stack
        if len(stack) <= 1:
            self._run += 1
        stack.append([name, self.clock(), 0.0, self.total, self._run])
        self.total += 1

    def end(self) -> None:
        end = self.clock()
        name, start, child_s, span_id, run = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        parent = -1
        if self._stack:
            frame = self._stack[-1]
            frame[2] += duration
            parent = frame[3]
        if len(self.spans) < self.keep:
            self.spans.append(Span(span_id, name, start, end, parent, run))

    def add(self, name: str, value: int) -> None:
        """Count work at a span boundary (e.g. columns per batch call)."""
        self.counts[name] = self.counts.get(name, 0) + value

    def take(self) -> dict[str, dict[str, float]]:
        """Hand over and reset the aggregates (one call per phase)."""
        summary = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        return summary

    def write(self, path: Path) -> None:
        """One JSON object per kept span, then one line of totals."""
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), separators=(",", ":")))
                handle.write("\n")
            handle.write(
                json.dumps({"spans_recorded": self.total, "spans_kept": len(self.spans)})
            )
            handle.write("\n")


def coverage(summary: dict[str, dict[str, float]], root: str) -> float:
    """Share of the *root* span's wall that named child layers account for."""
    self_s = summary["self_s"]
    named = sum(seconds for name, seconds in self_s.items() if name != root)
    wall = named + self_s.get(root, 0.0)
    return named / wall if wall else 0.0


class Traced(NamedTuple):
    """One public callable the traced run wraps.

    ``target`` is ``"package.module:attr"`` or ``"package.module:Class.attr"``.
    ``kind`` is ``"call"`` (one span per call) or ``"iter"`` (the callable
    returns an iterator; one span per ``next()``). ``count`` optionally
    names a counter and a function of the call's positional arguments.
    """

    span: str
    target: str
    kind: str = "call"
    count: tuple[str, Callable[..., int]] | None = None


def _wrap_call(recorder: Recorder, traced: Traced, func: Callable) -> Callable:
    begin, end, name = recorder.begin, recorder.end, traced.span

    if traced.count is None:
        @functools.wraps(func)
        def call(*args, **kwargs):
            begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                end()
        return call

    counter, measure = traced.count

    @functools.wraps(func)
    def counted_call(*args, **kwargs):
        recorder.add(counter, measure(*args))
        begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            end()
    return counted_call


def spans_per_next(recorder: Recorder, name: str, iterator: Iterator) -> Iterator:
    """Re-yield *iterator*, recording one span around each ``next()``."""
    begin, end = recorder.begin, recorder.end
    while True:
        begin(name)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            end()
        yield item


def _wrap_iter(recorder: Recorder, traced: Traced, func: Callable) -> Callable:
    @functools.wraps(func)
    def make_iterator(*args, **kwargs):
        return spans_per_next(recorder, traced.span, iter(func(*args, **kwargs)))
    return make_iterator


def install(recorder: Recorder, targets: tuple[Traced, ...]) -> None:
    """Replace every target with its timing wrapper, for the process's life."""
    for traced in targets:
        module_name, _, path = traced.target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = vars(owner)[attr]
        wrap = _wrap_iter if traced.kind == "iter" else _wrap_call
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrap(recorder, traced, raw.__func__))
        else:
            wrapped = wrap(recorder, traced, raw)
        setattr(owner, attr, wrapped)
