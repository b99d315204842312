"""The MRT-like trace record format: parsing and streaming.

Real RouteViews/RIPE RIS archives ship MRT binary (RFC 6396): RIB
snapshots (``TABLE_DUMP_V2``) plus update feeds (``BGP4MP``), each entry
carrying a collector peer, a prefix, an AS path (peer first, origin
**last**) and a timestamp. This module implements the same information
model over two zero-dependency text encodings, so traces are diffable,
greppable and trivially synthesized while keeping MRT's semantics:

* **JSONL** — one object per line::

      {"path":[3356,7018,64512],"peer":3356,"prefix":"10.0.0.0/16","ts":17.0,"type":"announce"}

* **TSV** — five tab-separated columns::

      ts<TAB>type<TAB>peer<TAB>prefix<TAB>path

  with the path space-separated (``3356 7018 64512``). Comment lines
  start with ``#``; blank lines are ignored. The two encodings are
  interchangeable line by line (a reader auto-detects per line on the
  leading ``{``). So a TSV number is spelled as JSON could carry it:
  peer and hops are ASCII digits, and the timestamp is an ASCII float
  with no ``_`` or padding.

Record types are ``rib`` (one RIB-dump entry: what *peer* currently
holds), ``announce`` and ``withdraw`` (update-feed deltas). One
deliberate divergence from raw MRT: withdraw records carry the withdrawn
origin as their (single-element) path, because the repro's event model
is origin-addressed — a real-BGP withdraw names only (peer, prefix) and
a converter from true MRT must resolve the origin against the peer's
RIB, which is exactly what :mod:`repro.ingest.compiler` does not need to
guess with this format.

Reading is **chunk-streamed**: :class:`TraceReader` pulls fixed-size
binary chunks (gzip members included) and splits lines itself, so a
multi-million-record trace never materializes in memory; a line that
runs past 1 MiB without a newline is dropped as one malformed line
(:mod:`repro.util.lines`). Strict mode
raises :class:`TraceFormatError` with ``path:line`` coordinates; lenient
mode counts malformed records (``ingest.malformed`` via
:mod:`repro.obs`) and keeps going — one mangled collector line must not
take down a monitor.
"""

from __future__ import annotations

import gzip
import zlib
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import IO, Generator, Iterable, Iterator

from repro.obs.metrics import NULL_METRICS, Metrics
from repro.prefixes.prefix import Prefix, PrefixError
from repro.util.lines import (
    CHUNK_SIZE,
    OVERLONG_LINE,
    decode_json_line,
    iter_chunk_lines,
    valid_timestamp,
)

__all__ = [
    "TraceFormatError",
    "TraceReader",
    "TraceRecord",
]

#: Valid values for :attr:`TraceRecord.kind`.
RECORD_TYPES = ("rib", "announce", "withdraw")

_MAX_ASN = 2**32 - 1

#: One validated record as plain fields: ``(line, kind, at, peer, prefix, path)``.
TraceRow = tuple[int, str, float, int, Prefix, tuple[int, ...]]


class TraceFormatError(ValueError):
    """A line does not encode a valid trace record (carries ``path:line``)."""


@dataclass(frozen=True, order=True)
class TraceRecord:
    """One trace line: *peer* reports *prefix* via *path* at time *ts*.

    ``path`` is the AS path exactly as MRT carries it — from the
    collector peer toward the origin, origin **last** — and is never
    empty (a withdraw's path is the single withdrawn origin). ``line``
    is the 1-based source line for error coordinates; it is excluded
    from equality so parse → serialize → parse round-trips compare
    clean.
    """

    kind: str
    at: float
    peer_asn: int
    prefix: Prefix
    path: tuple[int, ...]
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in RECORD_TYPES:
            raise ValueError(f"unknown record type {self.kind!r}")
        if not self.path:
            raise ValueError("a trace record's path must name at least the origin")

    @property
    def origin_asn(self) -> int:
        """The origin AS the record attributes the prefix to (path's last hop)."""
        return self.path[-1]


# -- per-line parsing ------------------------------------------------------


def _check_asn(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TraceFormatError(f"non-integer {what} {value!r}")
    if not 0 < value <= _MAX_ASN:
        raise TraceFormatError(f"{what} {value} outside 1..2^32-1")
    return value


def _build_row(
    line: int, kind: object, ts: object, peer: object, prefix_text: object,
    path: Iterable[object],
) -> TraceRow:
    if kind not in RECORD_TYPES:
        raise TraceFormatError(f"unknown record type {kind!r}")
    # A finite float passes; anything else gets valid_timestamp's verdict.
    if type(ts) is float and isfinite(ts):
        at = ts
    elif valid_timestamp(ts):
        at = float(ts)
    else:
        raise TraceFormatError(f"missing/invalid timestamp {ts!r}")
    # A plain in-range int passes; anything else gets _check_asn's verdict.
    if type(peer) is not int or not 0 < peer <= _MAX_ASN:
        _check_asn(peer, "peer ASN")
    if not isinstance(prefix_text, str):
        raise TraceFormatError(f"missing/invalid prefix {prefix_text!r}")
    try:
        prefix = Prefix.parse(prefix_text)
    except PrefixError as error:
        raise TraceFormatError(f"bad prefix {prefix_text!r}: {error}") from error
    hops = tuple(path)
    for hop in hops:
        if type(hop) is not int or not 0 < hop <= _MAX_ASN:
            _check_asn(hop, "path hop")
    if not hops:
        raise TraceFormatError("empty AS path")
    return line, kind, at, peer, prefix, hops


def _parse_json_record(line: str, number: int) -> TraceRow:
    try:
        payload = decode_json_line(line)
    except ValueError as error:
        raise TraceFormatError(f"invalid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise TraceFormatError(
            f"record must be an object, got {type(payload).__name__}"
        )
    path = payload.get("path")
    if not isinstance(path, list):
        raise TraceFormatError(f"missing/invalid path {path!r}")
    return _build_row(
        number, payload.get("type"), payload.get("ts"), payload.get("peer"),
        payload.get("prefix"), path,
    )


def _parse_tsv_record(line: str, number: int) -> TraceRow:
    fields = line.split("\t")
    if len(fields) != 5:
        raise TraceFormatError(
            f"expected 5 tab-separated fields, got {len(fields)}"
        )
    ts_text, kind, peer_text, prefix_text, path_text = fields
    # float() and int() read more than a JSON number can carry: "_"
    # separators, other scripts' digits, padding and (int) a sign. On an
    # ASCII line without "_", isdigit() alone means 0-9, so only a line
    # that fails these two tests checks its fields one by one.
    plain = line.isascii() and "_" not in line
    if not (plain or ts_text.isascii() and "_" not in ts_text) or ts_text[-1:].isspace():
        raise TraceFormatError(f"missing/invalid timestamp {ts_text!r}")
    try:
        ts: float = float(ts_text)
    except ValueError as error:
        raise TraceFormatError(f"missing/invalid timestamp {ts_text!r}") from error
    hop_texts = path_text.split()
    digits = plain and peer_text.isdigit() and "".join(hop_texts).isdigit()
    if digits:
        try:
            peer: object = int(peer_text)
            path: Iterable[object] = tuple(map(int, hop_texts))
        except ValueError:  # past int()'s digit limit
            digits = False
    if not digits:
        # Field by field, so the validator names the field that is wrong.
        peer = _tsv_asn(peer_text)
        path = [_tsv_asn(text) for text in hop_texts]
    return _build_row(number, kind, ts, peer, prefix_text, path)


def _tsv_asn(text: str) -> object:
    """*text* as an int if it is ASCII 0-9, else as is for the validator to name."""
    if text.isdigit() and text.isascii():
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    return text


def _record(row: TraceRow) -> TraceRecord:
    line, kind, at, peer, prefix, path = row
    return TraceRecord(kind, at, peer, prefix, path, line)


# -- chunk-streamed reading ------------------------------------------------


def _open_binary(path: Path) -> IO[bytes]:
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return path.open("rb")


class TraceReader:
    """Stream records out of a trace file, counting what it skips.

    Iterating yields :class:`TraceRecord` objects in file order;
    :meth:`rows` yields the same records as plain tuples. In
    strict mode any malformed line raises :class:`TraceFormatError`
    with ``path:line`` coordinates; in lenient mode it increments
    :attr:`malformed` (and the ``ingest.malformed`` metric) and moves
    on. ``lines`` / ``records`` expose the running totals, so callers
    can report coverage after the stream is drained.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        strict: bool = False,
        metrics: Metrics | None = None,
        chunk_size: int = CHUNK_SIZE,
    ) -> None:
        self.path = Path(path)
        self.strict = strict
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.chunk_size = chunk_size
        self.lines = 0
        self.records = 0
        self.malformed = 0
        self.errors: list[str] = []

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_record, self.rows())

    def rows(self) -> Generator[TraceRow, None, None]:
        """The validated fields of each record, ``(line, kind, at, peer, prefix, path)``.

        The same lines, checks and counters as iterating the reader,
        without building a :class:`TraceRecord` per line; the compilers
        read this. :attr:`lines` and :attr:`records` are kept in locals
        and stored when the pass ends, fails or is closed, so they are
        exact once a consumer stops reading.
        """
        number, records = 0, self.records
        metrics = self.metrics
        try:
            with _open_binary(self.path) as handle:
                for number, raw in enumerate(
                    iter_chunk_lines(handle, self.chunk_size), start=1
                ):
                    if raw is None:
                        self.note_malformed(TraceFormatError(OVERLONG_LINE), number)
                        continue
                    line = raw.decode("utf-8", "replace").strip()
                    if not line or line[0] == "#":
                        continue
                    try:
                        if line[0] == "{":
                            row = _parse_json_record(line, number)
                        else:
                            row = _parse_tsv_record(line, number)
                    except TraceFormatError as error:
                        self.note_malformed(error, number)
                        continue
                    records += 1
                    if metrics.enabled:
                        metrics.count("ingest.records")
                    yield row
        except (OSError, EOFError, zlib.error) as error:
            # The file or its gzip stream does not read (not gzip, cut
            # short, corrupt): no later line can be trusted in either mode.
            reason = getattr(error, "strerror", None) or error
            raise TraceFormatError(f"{self.path}: {reason}") from error
        finally:
            if number:
                self.lines = number
            self.records = records

    def note_malformed(self, error: Exception, number: int) -> None:
        """Count (lenient) or raise (strict) one bad line."""
        located = TraceFormatError(f"{self.path}:{number}: {error}")
        if self.strict:
            raise located from error
        self.malformed += 1
        self.metrics.count("ingest.malformed")
        if len(self.errors) < 32:
            self.errors.append(str(located))
