"""The load generator for ``daemon_http``: one thread, one connection.

The daemon serves one request per connection, so each request opens its
own. Events must reach the daemon in feed order (a withdraw overtaking
its announce changes the verdicts), so there is a single sender. In the
open loop requests are *due* on a fixed schedule and latency is timed
from the due time, which charges a stalled response's delay to the
requests queued behind it; ``late`` is the part of a late send the
generator itself caused (it was free and the request was due).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

SLOW_AFTER_S = 0.250  # a slower answer is counted as a deadline miss
_SPIN_S = 0.0003  # sleep to this far before a due time, then spin


class Reply(NamedTuple):
    status: int  # 0: no answer (refused, reset or timed out)
    body: bytes
    connect_s: float


class Request(NamedTuple):
    kind: str  # "post_events" | "get_verdicts" | "get_health"
    method: str
    path: str
    body: bytes = b""


@dataclass
class Sample:
    kind: str
    due: float
    sent: float
    done: float
    late: float
    status: int
    size: int
    connect_s: float

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def failed(self) -> bool:
        """The daemon did not answer 200; how long it took is not a failure."""
        return self.status != 200

    @property
    def slow(self) -> bool:
        """Answered, but past the deadline (a stalled box does this too)."""
        return self.status == 200 and self.latency > SLOW_AFTER_S


class Client:
    """Minimal HTTP/1.1 client: connect, send, read to EOF."""

    def __init__(self, host: str, port: int, timeout: float = 20.0) -> None:
        self.address = (host, port)
        self.timeout = timeout

    def send(self, request: Request) -> Reply:
        head = (
            f"{request.method} {request.path} HTTP/1.1\r\n"
            f"Host: {self.address[0]}\r\n"
            f"Content-Length: {len(request.body)}\r\n\r\n"
        ).encode("latin-1")
        started = time.perf_counter()
        try:
            with socket.create_connection(self.address, timeout=self.timeout) as conn:
                connect_s = time.perf_counter() - started
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.sendall(head + request.body)
                chunks = []
                while chunk := conn.recv(65536):
                    chunks.append(chunk)
        except OSError:
            return Reply(0, b"", 0.0)
        raw = b"".join(chunks)
        header, _, body = raw.partition(b"\r\n\r\n")
        try:
            status = int(header.split(b" ", 2)[1])
        except (IndexError, ValueError):
            status = 0
        return Reply(status, body, connect_s)


def wait_until(due: float) -> None:
    """Sleep most of the way to *due*, spin the rest (sleep overshoots)."""
    remaining = due - time.perf_counter()
    if remaining > _SPIN_S:
        time.sleep(remaining - _SPIN_S)
    while time.perf_counter() < due:
        pass


def open_loop(
    requests: Iterator[Request],
    send: Callable[[Request], Reply],
    rate: float,
    seconds: float,
    *,
    clock: Callable[[], float] = time.perf_counter,
    wait: Callable[[float], None] = wait_until,
) -> list[Sample]:
    """Send at a fixed *rate* for *seconds*; request *i* is due at ``i/rate``."""
    samples: list[Sample] = []
    start = clock()
    free_at = start
    for index in range(int(rate * seconds)):
        request = next(requests, None)
        if request is None:
            break
        due = start + index / rate
        wait(due)
        sent = clock()
        reply = send(request)
        done = clock()
        samples.append(
            Sample(request.kind, due, sent, done, sent - max(due, free_at),
                   reply.status, len(reply.body), reply.connect_s)
        )
        free_at = done
    return samples


def closed_loop(
    requests: Iterator[Request],
    send: Callable[[Request], Reply],
    seconds: float,
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> list[Sample]:
    """One client sending its next request when the previous one completes."""
    samples: list[Sample] = []
    deadline = clock() + seconds
    while (sent := clock()) < deadline:
        request = next(requests, None)
        if request is None:
            break
        reply = send(request)
        samples.append(
            Sample(request.kind, sent, sent, clock(), 0.0,
                   reply.status, len(reply.body), reply.connect_s)
        )
    return samples


def request_mix(lines: list[str], tenants: list[str], sent_lines: list[str]) -> Iterator[Request]:
    """One event line per POST; every tenth request reads instead.

    Reads alternate between one tenant's verdicts and ``/health``. Each
    line handed out is appended to *sent_lines*, the feed the offline
    replay must reproduce.
    """
    cursor = iter(lines)
    reads = 0
    position = 0
    while True:
        position += 1
        if position % 10 == 0:
            reads += 1
            if reads % 2:
                tenant = tenants[(reads // 2) % len(tenants)]
                yield Request("get_verdicts", "GET", f"/tenants/{tenant}/verdicts")
            else:
                yield Request("get_health", "GET", "/health")
            continue
        line = next(cursor, None)
        if line is None:
            return
        sent_lines.append(line)
        yield Request("post_events", "POST", "/events", line.encode("utf-8") + b"\n")
