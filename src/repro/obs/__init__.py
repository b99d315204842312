"""Runtime observability: counters, gauges and wall-clock spans.

A zero-dependency layer threaded through the simulation hot paths:
:mod:`repro.obs.metrics`, with a no-op :data:`NULL_METRICS` default so
uninstrumented runs pay (almost) nothing. Wall-clock is measured by
``benchmarks/e2e`` (see ``docs/performance.md``, "How to measure").
"""

from repro.obs.metrics import NULL_METRICS, Metrics, NullMetrics, SpanStats

__all__ = ["Metrics", "NULL_METRICS", "NullMetrics", "SpanStats"]
