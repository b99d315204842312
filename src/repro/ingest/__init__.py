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
    events_to_records,
)
from repro.ingest.pipeline import IngestResult, TracePipeline, run_ingest
from repro.ingest.records import (
    RECORD_TYPES,
    TraceFormatError,
    TraceReader,
    TraceRecord,
    format_record,
    parse_record,
)

__all__ = [
    "RECORD_TYPES",
    "IngestResult",
    "RibBaseline",
    "TraceFormatError",
    "TracePipeline",
    "TraceReader",
    "TraceRecord",
    "UpdateCompiler",
    "compile_rib",
    "compile_updates",
    "events_to_records",
    "format_record",
    "parse_record",
    "run_ingest",
]
