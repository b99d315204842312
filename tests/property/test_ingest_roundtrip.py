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

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import HijackKind, HijackScenario, PathKind
from repro.detection.detector import HijackDetector
from repro.detection.probes import custom_probes
from repro.ingest import (
    TraceFormatError,
    TraceReader,
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


# -- the reader's rows and its records compile alike -----------------------

_BAD_LINES = (
    "not a record",
    '{"path":[50],"peer":1,"prefix":"2.0.0.0/8","ts":1.0',
    '{"path":[],"peer":1,"prefix":"2.0.0.0/8","ts":1.0,"type":"announce"}',
    "1.0\tannounce\t1\t2.0.0.0/8",
    "1_0.5\tannounce\t1\t2.0.0.0/8\t50",
    "1.0\tannounce\t +5 \t2.0.0.0/8\t50",
    "1.0\twithdraw\t1\t2.0.0.0/8\t\uff15\uff10",
    "# a comment",
    "",
)


@st.composite
def feed_lines(draw) -> list[str]:
    """Mixed JSONL/TSV feed lines: malformed, misplaced ``rib`` and late ones too."""
    lines = []
    clock = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            lines.append(draw(st.sampled_from(_BAD_LINES)))
            continue
        step = draw(st.floats(min_value=-3.0, max_value=5.0,
                              allow_nan=False, allow_infinity=False))
        clock = max(0.0, clock + step)
        record = TraceRecord(
            kind=draw(st.sampled_from(("announce", "announce", "withdraw", "rib"))),
            at=clock, peer_asn=draw(asns), prefix=draw(prefixes),
            path=tuple(draw(st.lists(asns, min_size=1, max_size=4))),
        )
        lines.append(format_record(record, encoding=draw(encodings)))
    return lines


def _compiled(records, *, strict: bool) -> tuple:
    compiler = compile_updates(records, strict=strict)
    try:
        events = list(compiler)
    except TraceFormatError as error:
        return "raised", str(error)
    return events, compiler.events, compiler.out_of_order, compiler.misplaced


def _reader_counts(reader: TraceReader) -> tuple:
    return reader.lines, reader.records, reader.malformed, reader.errors


@settings(max_examples=example_budget(150), deadline=None)
@given(feed_lines())
def test_reader_rows_compile_like_its_records(lines):
    """``compile_updates(reader)`` reads rows; over ``list(reader)`` it reads records.

    Both give the same events and counts, and in strict mode the same
    ``path:line: …`` error: the first bad line, whether the reader or
    the compiler refuses it.
    """
    with tempfile.TemporaryDirectory() as directory:
        trace = Path(directory) / "updates.trace"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")

        streamed_reader, listed_reader = TraceReader(trace), TraceReader(trace)
        streamed = _compiled(streamed_reader, strict=False)
        listed = _compiled(list(listed_reader), strict=False)
        assert streamed == listed
        assert _reader_counts(streamed_reader) == _reader_counts(listed_reader)

        # The compiler names a list "<updates>" and a reader by its path.
        compiler_error = _compiled(list(TraceReader(trace)), strict=True)
        expected = []
        if compiler_error[0] == "raised":
            expected.append(compiler_error[1].replace("<updates>", str(trace), 1))
        try:
            list(TraceReader(trace, strict=True))
        except TraceFormatError as error:
            expected.append(str(error))
        expected.sort(key=lambda text: int(text[len(str(trace)) + 1:].split(":")[0]))
        strict = _compiled(TraceReader(trace, strict=True), strict=True)
        if expected:
            assert strict == ("raised", expected[0])
        else:
            assert strict == listed


def test_reader_rows_strict_error_names_the_file_and_line(tmp_path):
    trace = tmp_path / "updates.trace"
    trace.write_text(
        "2.0\tannounce\t1\t2.0.0.0/8\t50\n1.0\tannounce\t1\t2.0.0.0/8\t50\n",
        encoding="utf-8",
    )
    message = rf"^{re.escape(str(trace))}:2: timestamp 1\.0 precedes 2\.0"
    with pytest.raises(TraceFormatError, match=message):
        list(compile_updates(TraceReader(trace), strict=True))


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
