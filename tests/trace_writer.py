"""The trace writer: events and records back out as trace-file lines.

The inverse of what :mod:`repro.ingest` reads. The round-trip
batteries and ``tests/fixtures/make_golden_traces.py`` write traces
with it; the monitor itself only ever reads them.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.ingest.records import TraceRecord
from repro.stream.events import Announce, StreamEvent, Withdraw


def format_record(record: TraceRecord, *, encoding: str = "jsonl") -> str:
    """One serialized line (no newline), in either encoding the reader reads."""
    if encoding == "jsonl":
        payload = {
            "path": list(record.path),
            "peer": record.peer_asn,
            "prefix": str(record.prefix),
            "ts": record.at,
            "type": record.kind,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if encoding == "tsv":
        path = " ".join(str(hop) for hop in record.path)
        return (
            f"{record.at}\t{record.kind}\t{record.peer_asn}"
            f"\t{record.prefix}\t{path}"
        )
    raise ValueError(f"unknown trace encoding {encoding!r}")


def events_to_records(events: Iterable[StreamEvent]) -> list[TraceRecord]:
    """Serialize announce/withdraw events back into update-feed records.

    The inverse of :func:`repro.ingest.compiler.compile_updates`.
    Replay-marker announces (type-U / leak) resolve only against
    live routing state, and ROA / defense events have no MRT analogue;
    both raise ``ValueError``, so callers filter deliberately rather
    than lose events silently. Each record's peer is the announcer.
    """
    records: list[TraceRecord] = []
    for event in events:
        if isinstance(event, Announce):
            if event.replay:
                raise ValueError(
                    f"replay-marker announce ({event.replay!r}) cannot ride "
                    f"a trace file"
                )
            path = event.path if event.path else (event.origin_asn,)
            records.append(
                TraceRecord(
                    kind="announce", at=event.at,
                    peer_asn=event.origin_asn, prefix=event.prefix,
                    path=tuple(path),
                )
            )
        elif isinstance(event, Withdraw):
            records.append(
                TraceRecord(
                    kind="withdraw", at=event.at,
                    peer_asn=event.origin_asn, prefix=event.prefix,
                    path=(event.origin_asn,),
                )
            )
        else:
            raise ValueError(
                f"{type(event).__name__} events have no trace-record form"
            )
    return records
