"""Streaming RouteViews/MRT-style trace ingestion (see docs/ingestion.md).

The layer that turns real-world-shaped inputs — RIB dumps plus update
feeds in a documented MRT-like JSONL/TSV trace format — into
:mod:`repro.stream` events: chunk-streamed record reading with
strict/lenient error handling (:mod:`repro.ingest.records`), RIB →
legal-origin baseline and update → event compilation
(:mod:`repro.ingest.compiler`), and the end-to-end trace → replay →
monitor-report pipeline (:mod:`repro.ingest.pipeline`).
"""

from repro.ingest.compiler import (
    RibBaseline,
    UpdateCompiler,
    compile_rib,
    compile_updates,
)
from repro.ingest.pipeline import TracePipeline, run_ingest
from repro.ingest.records import (
    TraceFormatError,
    TraceReader,
    TraceRecord,
)

__all__ = [
    "RibBaseline",
    "TraceFormatError",
    "TracePipeline",
    "TraceReader",
    "TraceRecord",
    "UpdateCompiler",
    "compile_rib",
    "compile_updates",
    "run_ingest",
]
