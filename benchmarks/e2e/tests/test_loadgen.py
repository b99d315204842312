"""Due-time accounting of the open loop, the closed loop and the request mix."""

from __future__ import annotations

from itertools import count

import pytest

from benchmarks.e2e import loadgen


class World:
    """A fake clock the scheduler waits on and replies advance."""

    def __init__(self, service_times):
        self.now = 100.0
        self.service_times = iter(service_times)
        self.sent_at = []

    def clock(self) -> float:
        return self.now

    def wait(self, due: float) -> None:
        self.now = max(self.now, due)

    def send(self, request) -> loadgen.Reply:
        self.sent_at.append(self.now)
        self.now += next(self.service_times)
        return loadgen.Reply(200, b"{}", 0.0)


def _posts():
    return (loadgen.Request("post_events", "POST", "/events", b"x") for _ in count())


def test_requests_are_due_on_the_schedule_whatever_the_replies_do():
    world = World([0.001] * 10)
    samples = loadgen.open_loop(
        _posts(), world.send, rate=100, seconds=0.1, clock=world.clock, wait=world.wait
    )
    assert len(samples) == 10
    assert [s.due for s in samples] == pytest.approx([100 + i / 100 for i in range(10)])
    assert [s.latency for s in samples] == pytest.approx([0.001] * 10)
    assert [s.late for s in samples] == pytest.approx([0.0] * 10)


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    # 10 ms apart; the second reply stalls for 35 ms.
    world = World([0.001, 0.035, 0.001, 0.001, 0.001, 0.001])
    samples = loadgen.open_loop(
        _posts(), world.send, rate=100, seconds=0.06, clock=world.clock, wait=world.wait
    )
    sent = [s.sent - 100 for s in samples]
    assert sent == pytest.approx([0.0, 0.010, 0.045, 0.046, 0.047, 0.050])
    # Timed from when each was due, not from when it could finally be sent.
    assert [s.latency for s in samples] == pytest.approx(
        [0.001, 0.035, 0.026, 0.017, 0.008, 0.001]
    )
    # The generator was never free and idle past a due time: nothing is
    # its own fault, so the step stays valid.
    assert [s.late for s in samples] == pytest.approx([0.0] * 6)


def test_generator_lateness_is_what_the_generator_itself_added():
    world = World([0.001] * 3)

    def oversleeping_wait(due: float) -> None:
        world.now = max(world.now, due) + 0.002

    samples = loadgen.open_loop(
        _posts(), world.send, rate=100, seconds=0.03, clock=world.clock,
        wait=oversleeping_wait,
    )
    assert [s.late for s in samples] == pytest.approx([0.002] * 3)
    assert [s.latency for s in samples] == pytest.approx([0.003] * 3)


def test_unanswered_requests_fail_and_slow_ones_miss_the_deadline():
    ok = loadgen.Sample("post_events", 0.0, 0.0, 0.2, 0.0, 200, 2, 0.0)
    slow = loadgen.Sample("post_events", 0.0, 0.0, 0.251, 0.0, 200, 2, 0.0)
    refused = loadgen.Sample("post_events", 0.0, 0.0, 0.001, 0.0, 0, 0, 0.0)
    error = loadgen.Sample("post_events", 0.0, 0.0, 0.001, 0.0, 400, 9, 0.0)
    assert [s.failed for s in (ok, slow, refused, error)] == [False, False, True, True]
    assert [s.slow for s in (ok, slow, refused, error)] == [False, True, False, False]


def test_closed_loop_sends_the_next_when_the_previous_completes():
    world = World([0.0045] * 100)
    samples = loadgen.closed_loop(_posts(), world.send, 0.02, clock=world.clock)
    assert len(samples) == 5
    assert [s.sent - 100 for s in samples] == pytest.approx([0, 0.0045, 0.009, 0.0135, 0.018])
    assert all(s.late == 0.0 and s.latency == pytest.approx(0.0045) for s in samples)


def test_every_tenth_request_reads_and_sent_lines_keep_feed_order():
    lines = [f"line{i}" for i in range(30)]
    sent: list[str] = []
    requests = list(loadgen.request_mix(lines, ["a", "b"], sent))
    kinds = [request.kind for request in requests]
    assert kinds[:9] == ["post_events"] * 9 and kinds[9] == "get_verdicts"
    assert kinds[19] == "get_health" and kinds[29] == "get_verdicts"
    assert [r.path for r in requests if r.kind == "get_verdicts"] == [
        "/tenants/a/verdicts", "/tenants/b/verdicts",
    ]
    assert sent == lines
    assert [r.body for r in requests if r.kind == "post_events"] == [
        line.encode() + b"\n" for line in lines
    ]
