"""Counters, gauges and wall-clock spans for the simulation hot paths.

One :class:`Metrics` instance accumulates everything a run wants to
report — how many routes the engine installed, how long each sweep phase
took — and renders it as one JSON-friendly :meth:`snapshot`. The design
constraints, in order:

* **zero dependencies** — stdlib only, importable everywhere;
* **near-zero cost when off** — every instrumented component defaults to
  the shared :data:`NULL_METRICS` sink, whose methods are no-ops and
  whose ``enabled`` flag lets hot loops skip even the bookkeeping that
  would feed it (the engine counts locally and emits once per
  convergence, so the *enabled* path stays well under the 3% overhead
  budget — see docs/performance.md).

Names are dotted paths (``engine.routes_installed``,
``cache.hits``) so snapshots group naturally by component.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from contextlib import contextmanager

__all__ = ["Metrics", "NULL_METRICS"]


@dataclass
class SpanStats:
    """Aggregate of the duration samples recorded under one span name."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class Metrics:
    """An in-process sink for counters, gauges and timing spans.

    ``count`` accumulates, ``gauge`` overwrites (last value wins),
    ``observe`` records one duration sample, and ``span`` is the
    context-manager form of ``observe``::

        metrics = Metrics()
        with metrics.span("lab.sweep"):
            lab.sweep_target(target)
        metrics.count("engine.convergences", 3)
        metrics.snapshot()["spans"]["lab.sweep"]["total_s"]

    Instances are deliberately not thread-safe: each simulation process
    is single-threaded, and cross-process aggregation goes through
    explicit result plumbing (see the module docstring).
    """

    enabled = True

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.spans: dict[str, SpanStats] = {}

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.add(seconds)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self._clock()
        try:
            yield
        finally:
            self.observe(name, self._clock() - start)

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, object]]:
        """One JSON-serializable view of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {name: stats.as_dict() for name, stats in self.spans.items()},
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True), encoding="utf-8"
        )
        return path


class _NullSpan:
    """A reusable no-op context manager (one shared instance, no allocs)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullMetrics(Metrics):
    """The do-nothing sink every instrumented component defaults to.

    Hot paths may additionally branch on ``metrics.enabled`` to skip
    even the local bookkeeping that would feed the sink.
    """

    enabled = False

    def count(self, name: str, value: float = 1) -> None:  # noqa: ARG002
        return None

    def gauge(self, name: str, value: float) -> None:  # noqa: ARG002
        return None

    def observe(self, name: str, seconds: float) -> None:  # noqa: ARG002
        return None

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]  # noqa: ARG002
        return _NULL_SPAN


NULL_METRICS = NullMetrics()
