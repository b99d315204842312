"""Ingest round-trips are lossless and verdict-preserving.

The trace format's contract (``docs/ingestion.md``): a record survives
serialize → parse unchanged in both encodings; announce/withdraw events
survive ``events_to_records`` → ``compile_updates`` unchanged; and a
scenario lowered by ``compile_scenario``, written out as trace lines and
re-ingested, replays to the byte-identical monitor report — the trace
file is a faithful transport for attack campaigns, not a lossy export.
Runs in the nightly fuzz job at the scaled example budget.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import HijackKind, HijackScenario, PathKind
from repro.detection.detector import HijackDetector
from repro.detection.probes import custom_probes
from repro.ingest import (
    TraceRecord,
    compile_rib,
    compile_updates,
    events_to_records,
    format_record,
    parse_record,
)
from repro.oracle.strategies import example_budget
from repro.prefixes.prefix import Prefix
from repro.stream.events import Announce, Withdraw, compile_scenario
from repro.stream.monitor import OnlineMonitor
from repro.stream.replay import StreamReplayer
from tests.conftest import build_mini_graph

asns = st.integers(min_value=1, max_value=2**32 - 1)
timestamps = st.floats(min_value=0.0, max_value=1e9,
                       allow_nan=False, allow_infinity=False)
prefixes = st.builds(
    Prefix.from_host,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)
encodings = st.sampled_from(("jsonl", "tsv"))


@st.composite
def trace_records(draw) -> TraceRecord:
    kind = draw(st.sampled_from(("rib", "announce", "withdraw")))
    path = tuple(draw(st.lists(asns, min_size=1, max_size=6)))
    return TraceRecord(
        kind=kind, at=draw(timestamps), peer_asn=draw(asns),
        prefix=draw(prefixes), path=path,
    )


@st.composite
def update_events(draw) -> list:
    """Announce/withdraw sequences shaped like compiled update feeds.

    Announce paths follow the announcer-first convention (empty = the
    honest claim), which is the only shape ``compile_updates`` emits —
    and therefore the domain on which the round-trip must be exact.
    """
    events = []
    clock = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        clock += draw(st.floats(min_value=0.0, max_value=10.0,
                                allow_nan=False, allow_infinity=False))
        prefix = draw(prefixes)
        announcer = draw(asns)
        if draw(st.booleans()):
            tail = tuple(draw(st.lists(asns, min_size=0, max_size=4)))
            path = (announcer, *tail) if tail else ()
            events.append(Announce(at=clock, prefix=prefix,
                                   origin_asn=announcer, path=path))
        else:
            events.append(Withdraw(at=clock, prefix=prefix,
                                   origin_asn=announcer))
    return events


@settings(max_examples=example_budget(300), deadline=None)
@given(trace_records(), encodings)
def test_record_serialize_parse_roundtrip(record, encoding):
    line = format_record(record, encoding=encoding)
    assert parse_record(line) == record


@settings(max_examples=example_budget(200), deadline=None)
@given(update_events())
def test_events_to_records_to_events_is_lossless(events):
    records = events_to_records(events)
    assert list(compile_updates(records)) == events


@settings(max_examples=example_budget(150), deadline=None)
@given(update_events(), encodings)
def test_events_survive_the_wire_format(events, encoding):
    """events → records → text lines → records → events, end to end."""
    lines = [
        format_record(record, encoding=encoding)
        for record in events_to_records(events)
    ]
    parsed = [parse_record(line, number=index + 1)
              for index, line in enumerate(lines)]
    assert list(compile_updates(parsed)) == events


@settings(max_examples=example_budget(200), deadline=None)
@given(st.lists(trace_records().filter(lambda r: r.kind == "rib"),
                max_size=20))
def test_rib_baseline_classifies_its_own_entries_legit(records):
    baseline = compile_rib(records)
    kept: dict = {}  # lenient mode keeps the first entry per (peer, prefix)
    for record in records:
        kept.setdefault((record.peer_asn, record.prefix), record)
    for record in kept.values():
        assert record.origin_asn in baseline.origins.get(record.prefix)
    # the announce wave is one honest claim per distinct (prefix, origin)
    wave = {(event.prefix, event.origin_asn) for event in baseline.announces}
    assert len(wave) == len(baseline.announces)
    assert all(event.path == () for event in baseline.announces)


# -- verdict equivalence ---------------------------------------------------

_STUBS = (50, 60, 70, 80)


@st.composite
def mini_scenarios(draw) -> HijackScenario:
    target = draw(st.sampled_from(_STUBS))
    attacker = draw(st.sampled_from([asn for asn in _STUBS if asn != target]))
    kind = draw(st.sampled_from((HijackKind.ORIGIN, HijackKind.SUBPREFIX)))
    path_kind = draw(st.sampled_from((PathKind.TYPE_0, PathKind.TYPE_1)))
    lab = HijackLab(build_mini_graph(), seed=2014)
    prefix = lab.plan.primary_prefix(target)
    if kind is HijackKind.SUBPREFIX:
        prefix = next(prefix.subnets())
    return HijackScenario(
        target_asn=target, attacker_asn=attacker, prefix=prefix,
        kind=kind, path_kind=path_kind,
    )


def _replay_report(events) -> dict:
    lab = HijackLab(build_mini_graph(), seed=2014)
    replayer = StreamReplayer(lab)
    detector = HijackDetector(
        custom_probes("pair", [10, 20]), authority=replayer.authority
    )
    replayer.monitor = OnlineMonitor(lab.view, detector)
    for event in events:
        replayer.submit(event)
    return replayer.finish().as_dict()


@settings(max_examples=example_budget(25), deadline=None)
@given(mini_scenarios(), st.one_of(st.none(), st.floats(
    min_value=0.5, max_value=8.0, allow_nan=False, allow_infinity=False)))
def test_ingested_scenario_replays_to_identical_report(scenario, dwell):
    """A compiled campaign re-ingested from trace lines keeps its verdicts."""
    events = compile_scenario(scenario, spacing=1.0, dwell=dwell)
    lines = [format_record(r) for r in events_to_records(events)]
    ingested = list(compile_updates(
        parse_record(line, number=index + 1)
        for index, line in enumerate(lines)
    ))
    assert ingested == events
    assert _replay_report(ingested) == _replay_report(events)
