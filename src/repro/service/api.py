"""The asyncio front-end: the JSON API and the feed task.

The daemon follows the sync-core / async-shell split: every decision
lives in :class:`~repro.service.daemon.MonitorService`; this module only
moves bytes. Two front ends run on the loop, and both call the sync
core directly (``ingest_line`` per line, then ``poll``):

* the **HTTP server** — a deliberately minimal HTTP/1.1 implementation
  (request line, headers, ``Content-Length`` body; one request per
  connection), because the stdlib-only constraint is part of the
  subsystem's contract. Each connection is one :class:`asyncio.Protocol`:
  ``data_received`` buffers bytes and scans the request head as it
  arrives, and once the body is complete it dispatches and answers in
  the same callback — one ``transport.write`` of head and body, then
  ``write_eof`` and ``close``;
* an optional **feed task** tailing a JSONL file (``--input`` /
  ``--follow``), the "tails event feeds" half of the ingest front-end.

Nothing between reading a line and applying it awaits, so a request or
the feed task applies every line it has read before anything else runs: a
registration can never overtake feed or ``POST /events`` lines that
were read before it.

Requests the server refuses before dispatch, each answered and closed:
a request line over 64 KiB (414); a header line over 64 KiB or more
than 100 header lines (431); a malformed request line, a bad or negative
``Content-Length`` or two ``Content-Length`` headers that disagree
(400); a body over 16 MiB (413, before any body byte is read); any
``Transfer-Encoding``, which this server does not decode (501); and a
request not fully delivered within ``_READ_DEADLINE_S`` (408). A
connection that ends before its request is complete gets 400.

Endpoints (all JSON):

====== ================================ =======================================
GET    ``/health``                      service health incl. malformed counter
GET    ``/metrics``                     :mod:`repro.obs` snapshot
GET    ``/tenants``                     per-tenant stats + registrations
GET    ``/tenants/<t>/stats``           one tenant's latency stats
GET    ``/tenants/<t>/verdicts``        one tenant's verdicts
GET    ``/verdicts``                    every verdict raised so far
GET    ``/mitigations``                 auto-mitigation records
POST   ``/tenants/<t>/prefixes``        register prefix+ROA (JSON body)
POST   ``/tenants/<t>/deregister``      drop a registration (JSON body)
POST   ``/events``                      ingest a JSONL batch, return verdicts
POST   ``/flush``                       force a poll, return fresh verdicts
POST   ``/shutdown``                    clean shutdown
====== ================================ =======================================
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from typing import IO, Callable

from repro.service.daemon import MonitorService
from repro.stream.events import StreamFormatError
from repro.util.lines import OVERLONG_LINE, LineSplitter, decode_json_line

__all__ = ["ServiceDaemon"]


def _file_identity(handle: IO[bytes]) -> tuple[int, int]:
    """The (device, inode) pair that survives renames but not rotation."""
    stat = os.fstat(handle.fileno())
    return (stat.st_dev, stat.st_ino)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    501: "Not Implemented",
}

# Largest request body the daemon will read; a bigger Content-Length is
# refused before a byte of body is read.
_MAX_BODY_BYTES = 16 * 1024 * 1024

# Most header lines one request may carry.
_MAX_HEADERS = 100

# Longest request or header line, in bytes before its newline.
_MAX_LINE_BYTES = 64 * 1024

# Seconds a client has to deliver its whole request (line, headers and
# body); a silent or slow peer is answered 408 instead of holding its
# connection open. Handling the request is not under this deadline.
_READ_DEADLINE_S = 10.0


# A response body: JSON to encode, or JSON already encoded.
_Payload = dict[str, object] | list[object] | bytes


class _RequestError(Exception):
    """A request the daemon refuses before dispatch, with its status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceDaemon:
    """The asyncio shell: HTTP server and feed task over the sync core."""

    def __init__(
        self,
        service: MonitorService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None
        self._feeds: list[asyncio.Task[None]] = []
        self._stopped = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _HttpConnection(self._dispatch), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def stop(self) -> None:
        if self._stopped.is_set():
            return
        for task in self._feeds:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.service.poll()
        self._stopped.set()

    async def run(self) -> None:
        """Start, serve until a ``POST /shutdown`` arrives, tear down."""
        await self.start()
        await self.wait_stopped()

    # -- ingest ------------------------------------------------------------

    def ingest_text(self, text: str) -> dict[str, object]:
        """Ingest a JSONL batch line by line, poll, report."""
        accepted = 0
        malformed = 0
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if self.service.ingest_line(line):
                accepted += 1
            else:
                malformed += 1
        verdicts = self.service.poll()
        return {
            "accepted": accepted,
            "malformed": malformed,
            "verdicts": [verdict.as_dict() for verdict in verdicts],
        }

    def feed_file(self, path: str | Path, *, follow: bool = False) -> None:
        """Start a task feeding (and optionally tailing) a JSONL file."""
        self._feeds.append(
            asyncio.get_running_loop().create_task(self._feed(Path(path), follow))
        )

    async def _feed(self, path: Path, follow: bool) -> None:
        """Feed (and optionally tail) a JSONL file, surviving log rotation.

        The file is read in binary so the byte offset is exact, and
        split on newlines by hand: while following, a trailing fragment
        with no newline yet is held back until its newline lands — a
        writer caught mid-line must not produce a spurious malformed
        count. A fragment that grows past 1 MiB is dropped through its
        newline and counted as one malformed line
        (:class:`~repro.util.lines.LineSplitter`). At EOF the tail loop
        re-stats the path; a shrunken size
        (truncation) or a changed ``(st_dev, st_ino)`` (rotation) means
        the read position no longer refers to the data it came from, so
        the feed reopens from the start of the current file and counts
        ``service.feed.reopened``. A transiently missing path (the
        rotation window) just waits for the next poll.
        """
        handle = path.open("rb")
        try:
            identity = _file_identity(handle)
            offset = 0
            splitter = LineSplitter()
            while True:
                chunk = handle.read(65536)
                if chunk:
                    offset += len(chunk)
                    for raw in splitter.feed(chunk):
                        self._feed_line(raw)
                    continue
                if not follow:
                    tail = splitter.finish()
                    if tail:  # no trailing newline at final EOF
                        self._feed_line(tail)
                    self.service.poll()
                    return
                self.service.poll()
                try:
                    stat = path.stat()
                except OSError:
                    stat = None  # mid-rotation window: keep waiting
                if stat is not None and (
                    (stat.st_dev, stat.st_ino) != identity
                    or stat.st_size < offset
                ):
                    handle.close()
                    handle = path.open("rb")
                    identity = _file_identity(handle)
                    offset = 0
                    splitter = LineSplitter()
                    self.service.metrics.count("service.feed.reopened")
                    continue
                await asyncio.sleep(0.1)
        finally:
            handle.close()

    def _feed_line(self, raw: bytes | None) -> None:
        if raw is None:
            self.service.replayer.note_malformed(StreamFormatError(OVERLONG_LINE))
            return
        line = raw.decode("utf-8", "replace").strip()
        if line:
            self.service.ingest_line(line)

    # -- HTTP --------------------------------------------------------------

    def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, _Payload]:
        service = self.service
        segments = [segment for segment in path.split("?")[0].split("/") if segment]
        if method == "GET":
            if segments == ["health"]:
                return 200, service.health()
            if segments == ["metrics"]:
                return 200, service.metrics_snapshot()
            if segments == ["tenants"]:
                return 200, {"tenants": service.tenant_payloads()}
            if segments == ["verdicts"]:
                return 200, _verdict_listing(service.verdict_json())
            if segments == ["mitigations"]:
                return 200, {"mitigations": service.mitigation_payloads()}
            if len(segments) == 3 and segments[0] == "tenants":
                tenant = segments[1]
                if segments[2] == "stats":
                    return 200, service.tenant_stats(tenant)
                if segments[2] == "verdicts":
                    return 200, _verdict_listing(service.verdict_json(tenant))
            return 404, {"error": f"no such resource {path}"}
        if method == "POST":
            if segments == ["events"]:
                return 200, self.ingest_text(body.decode("utf-8", "replace"))
            if segments == ["flush"]:
                verdicts = service.poll()
                return 200, {"verdicts": [v.as_dict() for v in verdicts]}
            if segments == ["shutdown"]:
                asyncio.get_running_loop().create_task(self.stop())
                return 200, {"status": "stopping"}
            if len(segments) == 3 and segments[0] == "tenants":
                tenant = segments[1]
                payload = _json_object(body)
                if segments[2] == "prefixes":
                    registration = service.register(
                        tenant,
                        _field_str(payload, "prefix"),
                        _field_int(payload, "origin"),
                        max_length=_field_opt_int(payload, "max_length"),
                        auto_mitigate=_field_bool(payload, "auto_mitigate"),
                        deployers=tuple(_field_int_list(payload, "deployers")),
                    )
                    return 200, registration.as_dict()
                if segments[2] == "deregister":
                    try:
                        registration = service.deregister(
                            tenant, _field_str(payload, "prefix")
                        )
                    except KeyError as error:
                        return 404, {"error": error.args[0]}
                    return 200, registration.as_dict()
            return 404, {"error": f"no such resource {path}"}
        return 405, {"error": f"method {method} not supported"}


def _verdict_listing(verdict_json: str) -> bytes:
    """``{"verdicts": [...]}`` around an already-encoded verdict array."""
    return f'{{"verdicts": {verdict_json}}}'.encode("utf-8")


class _HttpConnection(asyncio.Protocol):
    """One connection: read one request as its bytes arrive, answer, close.

    The head is scanned line by line as data arrives, each line checked
    against the limits as soon as it is seen, so a refusal never waits
    for the rest of the head. The body is dispatched inside the
    ``data_received`` call that completes it.
    """

    _transport: asyncio.Transport
    _deadline: asyncio.TimerHandle

    def __init__(self, dispatch: Callable[[str, str, bytes], tuple[int, _Payload]]) -> None:
        self._dispatch = dispatch
        self._buffer = bytearray()
        self._line_start = 0  # offset of the head line being scanned
        self._searched = 0  # offset up to which that line holds no newline
        self._method = ""  # set, with the path, once the request line is in
        self._path = ""
        self._header_count = 0
        self._lengths: set[str] = set()  # distinct Content-Length texts
        self._transfer_encoded = False
        self._body_start = -1  # offset of the body, once the head is in
        self._body_length = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        seconds = _READ_DEADLINE_S
        self._deadline = asyncio.get_running_loop().call_later(
            seconds, self._answer, 408, {"error": f"request not received in {seconds} s"}
        )

    def connection_lost(self, exc: Exception | None) -> None:
        self._deadline.cancel()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._body_start < 0:
            try:
                if not self._scan_head():
                    return
            except _RequestError as error:
                self._answer(error.status, {"error": str(error)})
                return
        end = self._body_start + self._body_length
        if len(self._buffer) < end:
            return
        body = bytes(self._buffer[self._body_start : end])
        try:
            status, payload = self._dispatch(self._method, self._path, body)
        except ValueError as error:
            status, payload = 400, {"error": str(error)}
        self._answer(status, payload)

    def eof_received(self) -> None:
        # Only an incomplete request gets here: a complete one was
        # answered, and its transport closed, in data_received.
        self._answer(400, {"error": "connection closed before the request was complete"})

    def _answer(self, status: int, payload: _Payload) -> None:
        self._deadline.cancel()
        if isinstance(payload, bytes):
            body = payload
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        self._transport.write(head + body)
        # The client reads to EOF: send the FIN now, not on the loop's
        # next pass, where transport.close() would.
        self._transport.write_eof()
        self._transport.close()

    def _scan_head(self) -> bool:
        """Scan the head lines received so far; True once the head is complete.

        Raises :class:`_RequestError` for a head the server refuses.
        """
        buffer = self._buffer
        while True:
            start = self._line_start
            end = buffer.find(b"\n", self._searched)
            if (len(buffer) if end < 0 else end) - start > _MAX_LINE_BYTES:
                if not self._method:
                    raise _RequestError(414, "request line too long")
                raise _RequestError(431, "header line too long")
            if end < 0:
                self._searched = len(buffer)
                return False
            line = buffer[start : end + 1]
            self._line_start = self._searched = end + 1
            if not self._method:
                words = line.decode("latin-1", "replace").split()
                if len(words) < 2:
                    raise _RequestError(400, "malformed request line")
                self._method, self._path = words[0].upper(), words[1]
            elif line in (b"\r\n", b"\n"):
                break
            elif self._header_count == _MAX_HEADERS:
                raise _RequestError(431, f"more than {_MAX_HEADERS} header lines")
            else:
                self._header_count += 1
                name, _, value = line.decode("latin-1", "replace").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    self._lengths.add(value.strip())
                elif name == "transfer-encoding":
                    self._transfer_encoded = True
        self._body_start = self._line_start
        self._body_length = self._content_length()
        return True

    def _content_length(self) -> int:
        if self._transfer_encoded:
            # A chunked body read as Content-Length 0 would be dropped
            # while the client is told it was accepted.
            raise _RequestError(501, "Transfer-Encoding is not supported")
        try:
            lengths = {int(text or "0") for text in self._lengths} or {0}
        except ValueError:
            raise _RequestError(400, "bad Content-Length") from None
        if len(lengths) > 1:
            raise _RequestError(400, "conflicting Content-Length headers")
        (length,) = lengths
        if length < 0:
            raise _RequestError(400, "bad Content-Length")
        if length > _MAX_BODY_BYTES:
            raise _RequestError(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
        return length


def _json_object(body: bytes) -> dict[str, object]:
    try:
        payload = decode_json_line(body.decode("utf-8"))
    except ValueError as error:  # bad UTF-8 or JSON, deep nesting, a huge int
        raise ValueError(f"invalid JSON body: {error}") from error
    if not isinstance(payload, dict):
        raise ValueError("JSON body must be an object")
    return payload


def _field_str(payload: dict[str, object], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str):
        raise ValueError(f"missing/invalid {key!r}")
    return value


def _field_int(payload: dict[str, object], key: str) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"missing/invalid {key!r}")
    return value


def _field_bool(payload: dict[str, object], key: str) -> bool:
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"invalid {key!r}: expected true or false")
    return value


def _field_opt_int(payload: dict[str, object], key: str) -> int | None:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"invalid {key!r}")
    return value


def _field_int_list(payload: dict[str, object], key: str) -> list[int]:
    value = payload.get(key, [])
    if not isinstance(value, list) or not all(
        isinstance(item, int) and not isinstance(item, bool) for item in value
    ):
        raise ValueError(f"invalid {key!r}")
    return value
