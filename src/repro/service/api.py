"""The asyncio front-end: the JSON API and the feed task.

The daemon follows the sync-core / async-shell split: every decision
lives in :class:`~repro.service.daemon.MonitorService`; this module only
moves bytes. Two kinds of tasks run on the loop, and both call the sync
core directly (``ingest_line`` per line, then ``poll``):

* the **HTTP server** — a deliberately minimal HTTP/1.1 implementation
  over :func:`asyncio.start_server` (request line, headers,
  ``Content-Length`` body; one request per connection), because the
  stdlib-only constraint is part of the subsystem's contract;
* an optional **feed task** tailing a JSONL file (``--input`` /
  ``--follow``), the "tails event feeds" half of the ingest front-end.

Nothing between reading a line and applying it awaits, so a task
applies every line it has read before another task runs: a
registration can never overtake feed or ``POST /events`` lines that
were read before it.

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
import threading
from pathlib import Path
from typing import IO

from repro.service.daemon import MonitorService
from repro.stream.events import StreamFormatError
from repro.util.lines import OVERLONG_LINE, LineSplitter

__all__ = ["ServiceDaemon", "ServiceThread"]


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
}

# Largest request body the daemon will read; a bigger Content-Length is
# refused before a byte of body is read.
_MAX_BODY_BYTES = 16 * 1024 * 1024

# Most header lines one request may carry. A single request or header
# line is bounded by the stream reader's own 64 KiB line limit.
_MAX_HEADERS = 100

# Seconds a client has to deliver its whole request (line, headers and
# body); a silent or slow peer is answered 408 instead of holding its
# connection open. Handling the request is not under this deadline.
_READ_DEADLINE_S = 10.0


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
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
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
            self.service.plane.note_malformed(StreamFormatError(OVERLONG_LINE))
            return
        line = raw.decode("utf-8", "replace").strip()
        if line:
            self.service.ingest_line(line)

    # -- HTTP --------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._serve_one(reader)
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            reason = _REASONS.get(status, "OK")
            writer.write(
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, object] | list[object]]:
        try:
            method, path, body = await asyncio.wait_for(
                _read_request(reader), _READ_DEADLINE_S
            )
        except _RequestError as error:
            return error.status, {"error": str(error)}
        except asyncio.TimeoutError:
            return 408, {"error": f"request not received in {_READ_DEADLINE_S} s"}
        try:
            return self._dispatch(method, path, body)
        except ValueError as error:
            return 400, {"error": str(error)}

    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, object] | list[object]]:
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
                return 200, {"verdicts": service.verdict_payloads()}
            if segments == ["mitigations"]:
                return 200, {"mitigations": service.mitigation_payloads()}
            if len(segments) == 3 and segments[0] == "tenants":
                tenant = segments[1]
                if segments[2] == "stats":
                    return 200, service.tenant_stats(tenant)
                if segments[2] == "verdicts":
                    return 200, {"verdicts": service.verdict_payloads(tenant)}
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
                        auto_mitigate=bool(payload.get("auto_mitigate", False)),
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


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
    """Read one request's method, path and body, or raise :class:`_RequestError`."""
    # readline raises ValueError for a line past the reader's limit.
    try:
        request_line = await reader.readline()
    except ValueError:
        raise _RequestError(414, "request line too long") from None
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) < 2:
        raise _RequestError(400, "malformed request line")
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        try:
            line = await reader.readline()
        except ValueError:
            raise _RequestError(431, "header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _RequestError(431, f"more than {_MAX_HEADERS} header lines")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _RequestError(400, "bad Content-Length") from None
    if length < 0:
        raise _RequestError(400, "bad Content-Length")
    if length > _MAX_BODY_BYTES:
        raise _RequestError(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return parts[0].upper(), parts[1], body


def _json_object(body: bytes) -> dict[str, object]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
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


class ServiceThread:
    """Run a :class:`ServiceDaemon` on a background thread (tests, CLI).

    ``start()`` blocks until the listening port is known; ``stop()``
    requests a clean shutdown and joins the thread. The wrapped
    :class:`MonitorService` must only be touched from the daemon thread
    while running — interact over HTTP (or after ``stop()``).
    """

    def __init__(
        self, service: MonitorService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.daemon = ServiceDaemon(service, host=host, port=port)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def base_url(self) -> str:
        return f"http://{self.daemon.host}:{self.daemon.port}"

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.daemon.start()
        self._ready.set()
        await self.daemon.wait_stopped()

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                asyncio.run_coroutine_threadsafe(self.daemon.stop(), loop).result(
                    timeout=timeout
                )
            except Exception:
                pass
        self._thread.join(timeout=timeout)
