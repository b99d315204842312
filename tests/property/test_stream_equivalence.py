"""Incremental convergence is checksum-identical to cold recomputation.

The streaming subsystem's core guarantee (``docs/streaming.md``): after
*every* announce/withdraw, the :class:`PrefixLedger`'s live state equals
the chain :func:`full_converge` would compute from scratch over the
surviving announcements — bit-for-bit, via ``RouteState.checksum()``.
The first property checks that after every op of 200+ generated event
sequences; the second runs the same equivalence with the runtime
invariant checker on, so the history-aware invariant suite itself is
exercised on multi-announcement states; the third withdraws whatever
remains in a random order. The first and third run on both backends.

The ledger sequences draw flaps (a withdraw that empties the ledger,
then the same announcement again), which the ledger revives from the
released state instead of re-converging.

The next two pin the duplicate path: the ledger's O(1) membership set
agrees with its slots after any sequence, duplicates and spurious
withdraws included, and the replayer's withdraw-keyed coalescing
cancels exactly what the full per-key scan cancels. The next replays
mixed batches with flaps inside one batch: after every flush each
ledger equals the cold chain and keeps no released state, and the
report equals a per-event replay's.

The last is the monitor's differential: the live monitor reuses a
prefix's verdict while its probes show the same observation list under
the same published data, and its report must equal that of
:class:`RejudgingMonitor`, which re-judges every touched prefix.
"""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet
from repro.detection.taxonomy import PathObservation
from repro.obs.metrics import Metrics
from repro.prefixes.prefix import Prefix
from repro.registry.neighbors import NeighborRegistry
from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    RoaRevoke,
    Withdraw,
)
from repro.stream.incremental import PrefixLedger, full_converge
from repro.stream.monitor import OnlineMonitor, StreamAlarm
from repro.stream.replay import StreamReplayer
from repro.topology.relationships import Relationship
from tests.conftest import build_mini_graph
from tests.strategies import announce_withdraw_sequences, example_budget


def _apply(ledger: PrefixLedger, op) -> None:
    kind, origin, blocked, first_hop = op
    if kind == "announce":
        assert ledger.announce(origin, blocked=blocked, first_hop_filtered=first_hop)
    else:
        assert ledger.withdraw(origin)


BACKENDS = pytest.mark.parametrize("backend", ["reference", "array"])


@BACKENDS
@settings(max_examples=example_budget(220), deadline=None)
@given(announce_withdraw_sequences())
def test_ledger_matches_full_convergence_after_every_op(backend, case):
    """On ``"array"`` the ledger's first slot takes ``converge``'s fresh
    load while ``full_converge`` starts from a list-backed empty state:
    two load paths that must land on one checksum."""
    view, ops = case
    engine = RoutingEngine(view, backend=backend)
    ledger = PrefixLedger(engine)
    for op in ops:
        _apply(ledger, op)
        reference = full_converge(engine, ledger.entries)
        if reference is None:
            assert ledger.state is None and ledger.checksum() is None
        else:
            assert ledger.checksum() == reference.checksum()


@settings(max_examples=example_budget(40), deadline=None)
@given(announce_withdraw_sequences(max_size=16, max_events=6))
def test_ledger_equivalence_survives_runtime_validation(case):
    """Same equivalence with ``validate=True``: every ledger apply runs the
    history-aware invariant suite and the rewind-checksum tripwire."""
    view, ops = case
    engine = RoutingEngine(view, validate=True)
    ledger = PrefixLedger(engine)
    for op in ops:
        _apply(ledger, op)
    reference = full_converge(engine, ledger.entries)
    if reference is None:
        assert ledger.state is None
    else:
        assert ledger.checksum() == reference.checksum()


@BACKENDS
@settings(max_examples=example_budget(30), deadline=None)
@given(announce_withdraw_sequences(max_size=14, max_events=8), st.data())
def test_withdraw_order_independence(backend, case, data):
    """Withdrawing the remaining origins in any order from any reached
    state lands on the same chain state — interior rewinds replay the
    suffix correctly regardless of which entry is removed, and withdrawing
    the first entry re-bases the survivors on a cold first slot."""
    view, ops = case
    engine = RoutingEngine(view, backend=backend)
    ledger = PrefixLedger(engine)
    for op in ops:
        _apply(ledger, op)
    remaining = list(ledger.active_origins())
    order = data.draw(st.permutations(remaining), label="withdraw_order")
    for origin in order:
        assert ledger.withdraw(origin)
        reference = full_converge(engine, ledger.entries)
        if reference is None:
            assert ledger.state is None
        else:
            assert ledger.checksum() == reference.checksum()
    assert len(ledger) == 0


@settings(max_examples=example_budget(120), deadline=None)
@given(announce_withdraw_sequences(max_size=14, max_events=10), st.data())
def test_is_active_agrees_with_active_origins(case, data):
    """After every op — interior withdraws, slot-0 re-bases and flap
    revives included, with a duplicate announce or spurious withdraw drawn
    in between — the origin → entry map answers exactly what the slots say."""
    view, ops = case
    ledger = PrefixLedger(RoutingEngine(view))
    nodes = range(len(view))
    for op in ops:
        _apply(ledger, op)
        probe = data.draw(st.sampled_from(nodes), label="noop_probe")
        if ledger.is_active(probe):
            assert not ledger.announce(probe)
        else:
            assert not ledger.withdraw(probe)
        active = ledger.active_origins()
        assert [node for node in nodes if ledger.is_active(node)] == sorted(active)
        entries = ledger.entries  # the map holds the slots' own objects
        assert len(ledger.entry_of) == len(entries)
        assert all(a is b for a, b in zip(ledger.entry_of.values(), entries))


def _reference_coalesce(replayer: StreamReplayer, pending):
    """The full per-key scan the replayer's coalescing must agree with."""
    removed: set[int] = set()
    openers: dict = {}
    active: dict = {}
    for index, event in enumerate(pending):
        if not isinstance(event, (Announce, Withdraw)):
            continue
        key = (event.prefix, event.origin_asn)
        if key not in active:
            ledger = replayer.ledger(event.prefix)
            view = replayer.lab.view
            active[key] = bool(
                ledger is not None
                and view.has_asn(event.origin_asn)
                and ledger.is_active(view.node_of(event.origin_asn))
            )
        if isinstance(event, Announce):
            if not active[key]:
                active[key] = True
                openers.setdefault(key, []).append(index)
            else:
                openers.pop(key, None)
        elif active[key]:
            active[key] = False
            stack = openers.get(key)
            if stack:
                removed.add(stack.pop())
                removed.add(index)
    kept = [event for index, event in enumerate(pending) if index not in removed]
    return kept, len(removed)


_PREFIXES = (Prefix.parse("10.0.0.0/16"), Prefix.parse("10.1.0.0/16"))
_ORIGINS = (50, 60, 70, 999)  # 999 is not in the topology


@lru_cache(maxsize=1)
def _mini_lab() -> HijackLab:
    return HijackLab(build_mini_graph(), seed=1)


_keys = st.tuples(st.sampled_from(_PREFIXES), st.sampled_from(_ORIGINS))
_batch_events = st.one_of(
    _keys.map(lambda key: Announce(at=1.0, prefix=key[0], origin_asn=key[1])),
    _keys.map(lambda key: Withdraw(at=1.0, prefix=key[0], origin_asn=key[1])),
    _keys.map(lambda key: RoaPublish(at=1.0, prefix=key[0], origin_asn=key[1])),
    _keys.map(lambda key: RoaRevoke(at=1.0, prefix=key[0], origin_asn=key[1])),
    st.just(DefenseActivate(at=1.0, deployer_asns=(10,))),
)
# A flap: the withdraw and the re-announce of one key, back to back.
_flaps = _keys.map(
    lambda key: [
        Withdraw(at=1.0, prefix=key[0], origin_asn=key[1]),
        Announce(at=1.0, prefix=key[0], origin_asn=key[1]),
    ]
)
_batches = st.lists(
    st.one_of(_batch_events.map(lambda event: [event]), _flaps), max_size=8
).map(lambda groups: [event for group in groups for event in group])


@settings(max_examples=example_budget(300), deadline=None)
@given(st.lists(_keys, max_size=4, unique=True), _batches)
def test_coalesce_matches_the_full_key_scan(installed, batch):
    """Random mixed batches over pre-installed origins: batches without a
    withdraw, withdraw-before-announce, ROA and defense events sharing a
    withdraw's (prefix, origin), and origins the view does not know."""
    replayer = StreamReplayer(_mini_lab())
    for prefix, origin in installed:
        if origin != 999:
            replayer.submit(Announce(at=0.0, prefix=prefix, origin_asn=origin))
    replayer.flush()
    kept, cancelled = replayer._coalesce(batch)
    assert (kept, cancelled) == _reference_coalesce(replayer, batch)


@settings(max_examples=example_budget(120), deadline=None)
@given(st.lists(_keys, max_size=4, unique=True), st.lists(_batches, max_size=4))
def test_flushes_with_flaps_match_full_convergence(installed, batches):
    """Each drawn batch is one flush. Flaps inside it revive released
    states; every flush still leaves each ledger equal to the cold chain
    over its entries, with nothing released kept, and the final report
    equals the same events replayed one per flush (up to the emptied
    ledgers a cancelled announce→withdraw pair never created)."""
    lab = _mini_lab()
    replayer = StreamReplayer(lab, batch_window=100.0)
    events = [
        Announce(at=0.0, prefix=prefix, origin_asn=origin)
        for prefix, origin in installed
    ]
    for event in events:
        replayer.submit(event)
    for batch in [[]] + batches:
        for event in batch:
            replayer.submit(event)
        replayer.flush()
        for prefix in _PREFIXES:
            ledger = replayer.ledger(prefix)
            if ledger is None:
                continue
            assert ledger._released is None
            reference = full_converge(lab.engine, ledger.entries)
            assert ledger.checksum() == (
                reference.checksum() if reference is not None else None
            )
        events += batch
    unbatched = StreamReplayer(lab, queue_limit=1).run(events)

    def announced(report):
        return {p: d for p, d in report.prefixes.items() if d["active_origins"]}

    assert announced(replayer.report()) == announced(unbatched)


class RejudgingMonitor(OnlineMonitor):
    """The monitor without verdict reuse: every touched prefix's
    observation list goes to the detector, every time."""

    def observe(self, at, prefix, ledger):
        state = ledger.state
        if state is None:
            return None
        asn_of_origin = ledger.origin_asns()
        claimed = {entry.origin: entry.claimed_path for entry in ledger.entries}
        witnesses_by_tail: dict = {}
        announcer_by_tail: dict = {}
        for probe_asn, probe_node in self._probe_views:
            origin_node = state.origin_of[probe_node]
            if origin_node == -1 or origin_node == probe_node:
                continue
            announcer = asn_of_origin.get(origin_node)
            if announcer is None:
                continue
            tail = claimed.get(origin_node, (announcer,))
            witnesses_by_tail.setdefault(tail, []).append(probe_asn)
            announcer_by_tail.setdefault(tail, announcer)
        if not witnesses_by_tail:
            return None
        observations = [
            PathObservation(tail=tail, witnesses=tuple(sorted(probes)))
            for tail, probes in sorted(witnesses_by_tail.items())
        ]
        report = self.detector.observe_conflict(prefix, observations)
        if report is None:
            return None
        self._conflicts_judged += 1
        if not report.alarm:
            return None
        key = (prefix, report.origins, report.culprit_paths)
        if key in self._alarm_keys:
            return None
        self._alarm_keys.add(key)
        culprit_tails = report.culprit_paths or tuple(sorted(witnesses_by_tail))
        culprits = sorted({announcer_by_tail[tail] for tail in culprit_tails})
        anchors = [
            anchor
            for announcer in culprits
            if (anchor := self._announced.get((prefix, announcer))) is not None
        ]
        if anchors:
            anchor_at, anchor_seq = max(anchors)
            latency_time = max(0.0, at - anchor_at)
            latency_events = max(0, self._events_seen - anchor_seq)
        else:
            latency_time, latency_events = 0.0, 0
        triggered = tuple(
            sorted(
                probe
                for tail in culprit_tails
                for probe in witnesses_by_tail.get(tail, ())
            )
        )
        alarm = StreamAlarm(
            at=at,
            prefix=prefix,
            origins=report.origins,
            verdict=report.verdict.value,
            invalid_origins=report.invalid_origins,
            latency_time=latency_time,
            latency_events=latency_events,
            triggered_probes=triggered,
            culprit_paths=report.culprit_paths,
        )
        self.alarms.append(alarm)
        return alarm


# With the pair, most announces leave what the probes see unchanged, so
# verdicts are reused across ROA changes. In the mixed set 50 and 60 also
# announce, so a probe's own route drops out of the observation list and
# comes back.
_MONITOR_PROBES = (
    ProbeSet("pair", frozenset([10, 20])),
    ProbeSet("mixed", frozenset([1, 10, 20, 30, 50, 60, 80])),
)
_MONITOR_ORIGINS = (50, 60, 70, 30)
_forged_paths = st.one_of(
    st.just(()),
    st.tuples(st.sampled_from((40, 80, 2)), st.sampled_from(_MONITOR_ORIGINS)),
    st.tuples(st.sampled_from(_MONITOR_ORIGINS)),
)
_monitor_keys = st.tuples(
    st.sampled_from(_PREFIXES), st.sampled_from(_MONITOR_ORIGINS)
)


def _announce(key, path=()):
    return Announce(at=0.0, prefix=key[0], origin_asn=key[1], path=path)


_monitor_events = st.one_of(
    st.builds(lambda key, path: [_announce(key, path)], _monitor_keys, _forged_paths),
    _monitor_keys.map(
        lambda key: [Withdraw(at=0.0, prefix=key[0], origin_asn=key[1])]
    ),
    _monitor_keys.map(
        lambda key: [RoaPublish(at=0.0, prefix=key[0], origin_asn=key[1])]
    ),
    _monitor_keys.map(
        lambda key: [RoaRevoke(at=0.0, prefix=key[0], origin_asn=key[1])]
    ),
    st.just([DefenseActivate(at=0.0, deployer_asns=(20,))]),
    # One origin withdraws and re-announces with a new claimed path.
    st.builds(
        lambda key, path: [
            Withdraw(at=0.0, prefix=key[0], origin_asn=key[1]),
            _announce(key, path),
        ],
        _monitor_keys,
        _forged_paths,
    ),
)
_monitor_streams = st.lists(
    st.tuples(st.sampled_from((0.0, 0.25, 1.0)), _monitor_events),
    min_size=1,
    max_size=24,
)


def _timed(stream):
    """Stamp each drawn group with a non-decreasing virtual time."""
    events, at = [], 0.0
    for step, group in stream:
        at += step
        events += [dataclasses.replace(event, at=at) for event in group]
    return events


_HONEST = _announce((_PREFIXES[0], 50))
_FORGED = _announce((_PREFIXES[0], 50), (40, 50))


@settings(max_examples=example_budget(150), deadline=None)
@example(  # the pair's view is unchanged by 70's announce; the ROA is not
    [
        (0.0, [_HONEST, _announce((_PREFIXES[0], 60))]),
        (1.0, [RoaPublish(at=0.0, prefix=_PREFIXES[0], origin_asn=50)]),
        (1.0, [_announce((_PREFIXES[0], 70))]),
    ],
    0.0, _MONITOR_PROBES[0], "origin",
)
@example(  # same origin, same witnesses, a forged first hop
    [
        (0.0, [_HONEST]),
        (1.0, [Withdraw(at=0.0, prefix=_PREFIXES[0], origin_asn=50), _FORGED]),
    ],
    0.0, _MONITOR_PROBES[0], "path",
)
@example(  # one flush re-announces 50 behind a new first hop of one length
    [
        (0.0, [_FORGED, _announce((_PREFIXES[0], 60))]),
        (1.0, [
            Withdraw(at=0.0, prefix=_PREFIXES[0], origin_asn=50),
            _announce((_PREFIXES[0], 50), (80, 50)),
        ]),
    ],
    0.5, _MONITOR_PROBES[0], "path",
)
@given(
    _monitor_streams,
    st.sampled_from((0.0, 0.5, 2.0)),
    st.sampled_from(_MONITOR_PROBES),
    st.sampled_from(("origin", "path")),
)
def test_monitor_reuse_matches_rejudging_every_prefix(stream, window, probes, rules):
    """Random streams of announces, withdraws, forged paths, ROA
    publishes and revokes, defense activations and in-flush
    withdraw-then-re-announce with a new path, under several batch
    windows and two detector rule sets: the live monitor's report is the
    re-judging monitor's, alarm for alarm and count for count."""
    lab = _mini_lab()
    detector = HijackDetector(probes)
    if rules == "path":
        detector = dataclasses.replace(
            detector,
            neighbors=NeighborRegistry.from_graph(lab.graph),
            relationships=lab.graph,
        )
    events = _timed(stream)
    live = StreamReplayer(lab, detector=detector, batch_window=window)
    rejudged = StreamReplayer(lab, detector=detector, batch_window=window)
    rejudged.monitor = RejudgingMonitor(
        lab.view, dataclasses.replace(detector, authority=rejudged.authority)
    )
    live_report = live.run(events)
    rejudged_report = rejudged.run(events)
    assert live_report.monitor.as_dict() == rejudged_report.monitor.as_dict()
    assert live_report.as_dict() == rejudged_report.as_dict()


@pytest.mark.parametrize("rules", ["origin", "path"])
def test_monitor_rejudges_a_new_claim_behind_equal_probe_routes(rules):
    """Within one flush AS 50 is withdrawn and re-announced behind another
    first hop of the same length, then withdrawn and announced by its
    sibling AS 51 behind that hop: the probes' routes are equal every
    time, but each claim is a new ledger entry, so the monitor re-judges
    each flush instead of reusing, and reports what the re-judging
    monitor reports."""
    graph = build_mini_graph()
    graph.add_as(51, region="west")
    graph.add_relationship(50, 51, Relationship.SIBLING)
    lab = HijackLab(graph, seed=1)
    probes = _MONITOR_PROBES[0]
    detector = HijackDetector(probes)
    if rules == "path":
        detector = dataclasses.replace(
            detector,
            neighbors=NeighborRegistry.from_graph(lab.graph),
            relationships=lab.graph,
        )
    prefix = _PREFIXES[0]
    flushes = [
        [_announce((prefix, 60)), _announce((prefix, 50), (40, 50))],
        [Withdraw(at=0.0, prefix=prefix, origin_asn=50), _announce((prefix, 50), (80, 50))],
        [Withdraw(at=0.0, prefix=prefix, origin_asn=50), _announce((prefix, 51), (80, 51))],
    ]
    probe_nodes = [lab.view.node_of(asn) for asn in sorted(probes.asns)]

    def replay(replayer):
        routes = []
        for at, group in enumerate(flushes, start=1):
            for event in group:
                replayer.submit(dataclasses.replace(event, at=float(at)))
            replayer.flush()
            routes.append(replayer.ledger(prefix).state.routes_at(probe_nodes))
        return replayer.finish(), routes

    metrics = Metrics()
    live = StreamReplayer(lab, detector=detector, batch_window=0.5, metrics=metrics)
    report, routes = replay(live)
    assert routes[0] == routes[1] == routes[2]
    assert metrics.counters.get("stream.monitor.reused", 0) == 0
    assert report.monitor.conflicts_judged == len(flushes)
    rejudged = StreamReplayer(lab, detector=detector, batch_window=0.5)
    rejudged.monitor = RejudgingMonitor(
        lab.view, dataclasses.replace(detector, authority=rejudged.authority)
    )
    assert report.as_dict() == replay(rejudged)[0].as_dict()
