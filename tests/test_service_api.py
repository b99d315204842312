"""The async shell: HTTP round-trips against a live ServiceThread.

One daemon per test class keeps the suite fast; every interaction goes
over real sockets through the stdlib HTTP client, exactly as the CI
smoke step and an operator's curl would.
"""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.attacks.lab import HijackLab
from repro.detection.probes import ProbeSet
from repro.obs.metrics import Metrics
from repro.service import api as service_api
from repro.service.api import _MAX_BODY_BYTES, _MAX_HEADERS
from repro.service.daemon import MonitorService
from repro.stream.monitor import OnlineMonitor
from tests.conftest import build_mini_graph
from tests.service_thread import ServiceThread


def _request(base_url, method, path, payload=None, raw=None):
    """One HTTP exchange; returns (status, decoded JSON body)."""
    if raw is not None:
        data = raw.encode("utf-8")
    elif payload is not None:
        data = json.dumps(payload).encode("utf-8")
    else:
        data = None
    request = urllib.request.Request(base_url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def thread():
    lab = HijackLab(build_mini_graph(), seed=1)
    service = MonitorService(
        lab, probes=ProbeSet("pair", frozenset([10, 20])), metrics=Metrics()
    )
    thread = ServiceThread(service).start()
    yield thread
    thread.stop()


@pytest.fixture(scope="module")
def api(thread):
    def call(method, path, payload=None, raw=None):
        return _request(thread.base_url, method, path, payload=payload, raw=raw)

    return call


def announce(at, prefix, origin):
    return json.dumps(
        {"kind": "announce", "at": at, "prefix": prefix, "origin": origin}
    )


class TestLifecycle:
    def test_health_before_traffic(self, api):
        status, health = api("GET", "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert "shards" not in health

    def test_register_then_hijack_then_verdict(self, api):
        status, registration = api(
            "POST", "/tenants/acme/prefixes",
            payload={"prefix": "10.0.0.0/16", "origin": 50, "auto_mitigate": True},
        )
        assert status == 200
        assert registration["tenant"] == "acme"

        lines = "\n".join([
            announce(0.0, "10.0.0.0/16", 50),
            "this line is garbage",
            announce(1.0, "10.0.0.0/17", 60),
        ])
        status, outcome = api("POST", "/events", raw=lines)
        assert status == 200
        assert outcome["accepted"] == 2
        assert outcome["malformed"] == 1
        verdicts = outcome["verdicts"]
        assert [(v["tenant"], v["verdict"], v["confirmed"]) for v in verdicts] == [
            ("acme", "hijack", True)
        ]
        assert "shard" not in verdicts[0]

    def test_stats_and_mitigations_after_hijack(self, api):
        status, stats = api("GET", "/tenants/acme/stats")
        assert status == 200
        assert stats["latency"]["count"] == 1
        assert stats["verdicts"] == 1

        status, body = api("GET", "/mitigations")
        assert status == 200
        records = body["mitigations"]
        assert len(records) == 1
        assert records[0]["coverage_after"] > records[0]["coverage_before"]

    def test_health_reflects_counters(self, api):
        _status, health = api("GET", "/health")
        assert health["events"]["malformed"] == 1
        assert health["verdicts"] >= 1
        assert health["mitigations"] == 1

    def test_tenant_scoped_verdicts(self, api):
        _status, body = api("GET", "/tenants/acme/verdicts")
        assert [v["tenant"] for v in body["verdicts"]] == ["acme"]
        _status, body = api("GET", "/tenants/nobody/verdicts")
        assert body["verdicts"] == []

    def test_tenants_listing(self, api):
        _status, body = api("GET", "/tenants")
        assert [t["tenant"] for t in body["tenants"]] == ["acme"]

    def test_metrics_snapshot(self, api):
        status, snapshot = api("GET", "/metrics")
        assert status == 200
        assert snapshot["counters"]["service.verdicts"] >= 1

    def test_flush_with_nothing_pending(self, api):
        status, body = api("POST", "/flush")
        assert status == 200 and body["verdicts"] == []

    def test_deregister(self, api):
        api("POST", "/tenants/temp/prefixes",
            payload={"prefix": "192.168.0.0/16", "origin": 70})
        status, dropped = api(
            "POST", "/tenants/temp/deregister",
            payload={"prefix": "192.168.0.0/16"},
        )
        assert status == 200
        assert dropped["prefix"] == "192.168.0.0/16"


class TestErrors:
    def test_unknown_path_is_404(self, api):
        status, body = api("GET", "/nope")
        assert status == 404 and "error" in body

    def test_unknown_method_is_405(self, api):
        status, _body = api("PUT", "/health")
        assert status == 405

    def test_bad_json_body_is_400(self, api):
        status, body = api("POST", "/tenants/acme/prefixes", raw="{not json")
        assert status == 400 and "invalid JSON" in body["error"]

    def test_missing_field_is_400(self, api):
        status, body = api("POST", "/tenants/acme/prefixes", payload={"origin": 50})
        assert status == 400 and "prefix" in body["error"]

    def test_bad_prefix_is_400(self, api):
        status, _body = api(
            "POST", "/tenants/acme/prefixes",
            payload={"prefix": "not-a-prefix", "origin": 50},
        )
        assert status == 400

    def test_unknown_origin_is_400(self, api):
        status, body = api(
            "POST", "/tenants/acme/prefixes",
            payload={"prefix": "172.16.0.0/12", "origin": 999999},
        )
        assert status == 400 and "unknown origin" in body["error"]

    def test_deregister_unregistered_prefix_is_404(self, api):
        status, body = api(
            "POST", "/tenants/a/deregister", payload={"prefix": "2.192.0.0/12"}
        )
        assert status == 404
        assert "a has no registration for 2.192.0.0/12" in body["error"]

    @pytest.mark.parametrize("max_length", [99, 3])
    def test_out_of_range_max_length_is_400_and_registers_nothing(
        self, api, max_length
    ):
        _status, before = api("GET", "/health")
        status, body = api(
            "POST", "/tenants/a/prefixes",
            payload={"prefix": "2.192.0.0/12", "origin": 60,
                     "max_length": max_length},
        )
        assert status == 400
        assert f"maxLength {max_length} outside [12, 32]" in body["error"]
        _status, after = api("GET", "/health")
        assert (after["registrations"], after["roas"]) == (
            before["registrations"], before["roas"]
        )

    @pytest.mark.parametrize("flag", ["false", 1, None])
    def test_non_boolean_auto_mitigate_is_400_and_registers_nothing(self, api, flag):
        # Read as truthiness, "false" would arm the reactive hook.
        _status, before = api("GET", "/health")
        status, body = api(
            "POST", "/tenants/a/prefixes",
            payload={"prefix": "2.192.0.0/12", "origin": 60, "auto_mitigate": flag},
        )
        assert status == 400
        assert "'auto_mitigate'" in body["error"]
        _status, after = api("GET", "/health")
        assert (after["registrations"], after["roas"]) == (
            before["registrations"], before["roas"]
        )

    @pytest.mark.parametrize(
        "length, expected", [(-5, 400), (_MAX_BODY_BYTES + 1, 413)]
    )
    def test_hostile_content_length_is_refused_unread(
        self, thread, api, length, expected
    ):
        # Header only, no body: the daemon must answer from the declared
        # length alone rather than wait for (or choke on) the bytes.
        with socket.create_connection(("127.0.0.1", thread.port), timeout=10) as conn:
            conn.sendall(
                f"POST /events HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
            )
            status_line = conn.makefile("rb").readline().split()
        assert int(status_line[1]) == expected
        status, _body = api("GET", "/health")
        assert status == 200

    @pytest.mark.parametrize(
        "sent",
        [
            # Declares 100 body bytes, delivers 10, then goes quiet.
            b"POST /events HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 10,
            # Connects and sends nothing at all.
            b"",
        ],
        ids=["partial-body", "silent"],
    )
    def test_slow_client_gets_408(self, thread, api, monkeypatch, sent):
        monkeypatch.setattr(service_api, "_READ_DEADLINE_S", 0.2)
        with socket.create_connection(("127.0.0.1", thread.port), timeout=5) as conn:
            conn.sendall(sent)
            status_line = conn.makefile("rb").readline().split()
        assert int(status_line[1]) == 408
        status, _body = api("GET", "/health")
        assert status == 200

    @pytest.mark.parametrize(
        "request_head, expected",
        [
            # A request line past the stream reader's 64 KiB line limit.
            ("GET /" + "a" * (70 * 1024) + " HTTP/1.1\r\n\r\n", 414),
            # One header line past the same limit.
            ("GET /health HTTP/1.1\r\nX-Big: " + "b" * (70 * 1024) + "\r\n\r\n", 431),
            # More header lines than _MAX_HEADERS, each of them short.
            (
                "GET /health HTTP/1.1\r\n"
                + "".join(f"X-H{i}: v\r\n" for i in range(_MAX_HEADERS + 1))
                + "\r\n",
                431,
            ),
        ],
        ids=["long-request-line", "long-header-line", "too-many-headers"],
    )
    def test_oversized_request_head_is_answered(
        self, thread, api, request_head, expected
    ):
        with socket.create_connection(("127.0.0.1", thread.port), timeout=10) as conn:
            conn.sendall(request_head.encode())
            status_line = conn.makefile("rb").readline().split()
        assert int(status_line[1]) == expected
        status, _body = api("GET", "/health")
        assert status == 200

    @pytest.mark.parametrize(
        "sent, expected",
        [
            # A chunked body would be read as no body and answered 200
            # with nothing ingested.
            (b"POST /events HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            # RFC 9112 section 6.3: differing lengths leave the body's end unknown.
            (
                b"POST /events HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Content-Length: 5\r\n\r\n\n\n\n\n\n",
                400,
            ),
            # The same length repeated is unambiguous.
            (
                b"POST /events HTTP/1.1\r\nContent-Length: 5\r\n"
                b"Content-Length: 5\r\n\r\n\n\n\n\n\n",
                200,
            ),
        ],
        ids=["transfer-encoding", "conflicting-content-length", "repeated-content-length"],
    )
    def test_body_framing(self, thread, api, sent, expected):
        status, body = _exchange(thread.port, [sent])
        assert status == expected, body
        status, _body = api("GET", "/health")
        assert status == 200

    def test_header_count_at_the_limit_is_served(self, thread):
        head = (
            "GET /health HTTP/1.1\r\n"
            + "".join(f"X-H{i}: v\r\n" for i in range(_MAX_HEADERS))
            + "\r\n"
        )
        with socket.create_connection(("127.0.0.1", thread.port), timeout=10) as conn:
            conn.sendall(head.encode())
            status_line = conn.makefile("rb").readline().split()
        assert int(status_line[1]) == 200


def _exchange(port, chunks, *, pause=0.0, half_close=False):
    """Send each chunk in its own send, *pause* seconds apart; read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            conn.sendall(chunk)
            time.sleep(pause)
        if half_close:
            conn.shutdown(socket.SHUT_WR)
        raw = conn.makefile("rb").read()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _deregister_request(padding=0):
    """A request whose 404 names its tenant and prefix only if the whole
    JSON body arrived; *padding* spaces lengthen that body."""
    body = b" " * padding + json.dumps({"prefix": "2.192.0.0/12"}).encode()
    head = (
        "POST /tenants/nobody/deregister HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


_DEREGISTER_404 = "nobody has no registration for 2.192.0.0/12"


class TestRequestArrival:
    """However a request's bytes are split, it is answered as a whole."""

    def test_one_byte_at_a_time(self, thread):
        # Every split point: inside the request line, inside a header,
        # inside the blank line and inside the body.
        request = _deregister_request()
        status, body = _exchange(
            thread.port, [request[i : i + 1] for i in range(len(request))], pause=0.001
        )
        assert status == 404 and _DEREGISTER_404 in body["error"]

    def test_body_spans_several_reads(self, thread):
        request = _deregister_request(padding=300_000)
        head_end = request.index(b"\r\n\r\n") + 4
        chunks = [request[:head_end + 7], request[head_end + 7 : -10], request[-10:]]
        status, body = _exchange(thread.port, chunks, pause=0.02)
        assert status == 404 and _DEREGISTER_404 in body["error"]

    def test_half_closed_client_gets_its_answer(self, thread):
        status, body = _exchange(
            thread.port, [b"GET /health HTTP/1.1\r\n\r\n"], half_close=True
        )
        assert status == 200 and body["status"] == "ok"

    def test_disconnect_mid_body_leaves_the_daemon_serving(self, thread, api):
        with socket.create_connection(("127.0.0.1", thread.port), timeout=10) as conn:
            conn.sendall(b"POST /events HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 10)
        status, _body = api("GET", "/health")
        assert status == 200

    def test_stalled_client_does_not_delay_others(self, thread, api, monkeypatch):
        monkeypatch.setattr(service_api, "_READ_DEADLINE_S", 2.0)
        with socket.create_connection(("127.0.0.1", thread.port), timeout=10) as stalled:
            stalled.sendall(b"POST /events HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
            began = time.perf_counter()
            status, _body = api("GET", "/health")
            elapsed = time.perf_counter() - began
            assert status == 200 and elapsed < 1.0
            assert int(stalled.makefile("rb").readline().split()[1]) == 408


def _raise_on_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestHostileEvents:
    """Lines that must cost one malformed count, never the daemon."""

    @pytest.fixture
    def fresh(self):
        lab = HijackLab(build_mini_graph(), seed=1)
        service = MonitorService(lab, probes=ProbeSet("pair", frozenset([10, 20])))
        thread = ServiceThread(service).start()
        yield thread
        thread.stop()

    def test_non_finite_time_is_malformed_and_health_stays_json(self, fresh):
        lines = "\n".join([
            announce(0.0, "10.0.0.0/16", 50),
            '{"at":Infinity,"kind":"announce","origin":60,"prefix":"10.0.0.0/17"}',
        ])
        status, outcome = _request(fresh.base_url, "POST", "/events", raw=lines)
        assert status == 200
        assert (outcome["accepted"], outcome["malformed"]) == (1, 1)
        with urllib.request.urlopen(fresh.base_url + "/health", timeout=30) as response:
            health = json.loads(response.read(), parse_constant=_raise_on_constant)
        assert health["clock"] == 0.0
        assert health["events"]["out_of_order"] == 0

    def test_out_of_range_max_length_roa_line_is_malformed(self, fresh):
        line = json.dumps({"kind": "roa-publish", "at": 0.0, "prefix": "10.0.0.0/16",
                           "origin": 50, "max_length": 99})
        status, outcome = _request(fresh.base_url, "POST", "/events", raw=line)
        assert status == 200
        assert (outcome["accepted"], outcome["malformed"]) == (0, 1)
        _status, health = _request(fresh.base_url, "GET", "/health")
        assert health["roas"] == 0

    def test_failing_event_still_answers(self, fresh, monkeypatch):
        def broken(*_args, **_kwargs):
            raise RuntimeError("monitor exploded")

        monkeypatch.setattr(OnlineMonitor, "observe", broken)
        # One failure inside an event's submit, one inside the poll's flush.
        lines = "\n".join([
            announce(0.0, "10.0.0.0/16", 50),
            announce(1.0, "10.0.0.0/16", 60),
            announce(2.0, "10.0.0.0/16", 70),
        ])
        status, outcome = _request(fresh.base_url, "POST", "/events", raw=lines)
        assert status == 200
        assert outcome["accepted"] == 3
        status, health = _request(fresh.base_url, "GET", "/health")
        assert status == 200 and health["events"]["ingested"] == 3


class TestShutdownEndpoint:
    def test_post_shutdown_stops_the_daemon(self):
        lab = HijackLab(build_mini_graph(), seed=1)
        service = MonitorService(lab, probes=ProbeSet("pair", frozenset([10, 20])))
        thread = ServiceThread(service).start()
        status, body = _request(thread.base_url, "POST", "/shutdown")
        assert status == 200 and body["status"] == "stopping"
        thread._thread.join(timeout=30)
        assert not thread._thread.is_alive()
