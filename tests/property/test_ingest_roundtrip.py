"""Ingest round-trips are lossless and verdict-preserving.

The trace format's contract (``docs/ingestion.md``): a record survives
serialize → parse unchanged in both encodings; announce/withdraw events
survive ``events_to_records`` → ``compile_updates`` unchanged; and a
scenario lowered by ``compile_scenario``, written out as trace lines and
re-ingested, replays to the byte-identical monitor report — the trace
file is a faithful transport for attack campaigns, not a lossy export.
Every JSON-ish line reads as ``json.loads`` would, though the reader
scans it once, and the reader's and compiler's counts are exact when a
consumer stops part-way. Runs in the nightly fuzz job at the scaled
example budget.
"""

from __future__ import annotations

import json
import re
import tempfile
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import HijackKind, HijackScenario, PathKind
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet
from repro.ingest import (
    TraceFormatError,
    TracePipeline,
    TraceReader,
    TraceRecord,
    compile_rib,
    compile_updates,
)
from repro.ingest import records as records_module
from repro.ingest.records import TraceRow
from repro.prefixes.prefix import Prefix
from repro.stream.events import (
    Announce,
    StreamFormatError,
    Withdraw,
    compile_scenario,
    event_from_dict,
    parse_event_line,
)
from repro.stream.monitor import OnlineMonitor
from repro.stream.replay import StreamReplayer
from tests.conftest import build_mini_graph
from tests.strategies import example_budget
from tests.trace_writer import events_to_records, format_record

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


def _read_back(lines: list[str]) -> list[TraceRecord]:
    """*lines* written to a trace file and read back by a strict reader."""
    with tempfile.TemporaryDirectory() as directory:
        trace = Path(directory) / "lines.trace"
        trace.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return list(TraceReader(trace, strict=True))


@settings(max_examples=example_budget(300), deadline=None)
@given(trace_records(), encodings)
def test_record_serialize_parse_roundtrip(record, encoding):
    assert _read_back([format_record(record, encoding=encoding)]) == [record]


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
    assert list(compile_updates(_read_back(lines))) == events


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


# -- one JSON scan per line --------------------------------------------------

# Value texts per key: valid ones first, then the wrong type, numbers JSON
# carries but no clock or ASN can (NaN, infinities, past float range, past
# int()'s digit limit), escapes, and nesting past the recursion limit.
_NUMBERS = ("17", "1.5", "-2", "0", "1e400", "1" + "0" * 400, "9" * 5000,
            "NaN", "Infinity", "-Infinity", "true", "null", '"7"')
_VALUE_TEXTS = {
    "type": ('"announce"', '"withdraw"', '"rib"', '"teleport"', "3"),
    "kind": ('"announce"', '"withdraw"', '"roa-publish"', '"defense-activate"', "[]"),
    "ts": _NUMBERS, "at": _NUMBERS,
    "peer": _NUMBERS, "origin": _NUMBERS, "max_length": _NUMBERS,
    "prefix": ('"10.1.0.0/16"', '"2.0.0.0/8"', '"10.0.0.0/40"', '"\\u0031.0.0.0/8"',
               '"1.2.3.4"', "16"),
    "path": ("[50]", "[60,64512,50]", "[]", '[1,"2"]', "[0]", "[" * 3000 + "]" * 3000,
             "[" + "9" * 5000 + "]", "{}"),
    "deployers": ("[1,2]", "[]", "[true]"),
    "replay": ('"leak"', '"verbatim"', '""', "7"),
}
_RECORD_KEYS = ("path", "peer", "prefix", "ts", "type")
_EVENT_KEYS = ("at", "kind", "origin", "prefix")
_TAILS = ("", " ", "\t", "\r", "\x0b", "\u00a0", "\ufeff", "x", "}", ",", "{}",
          '{"type":"rib"}', "[1]")


@st.composite
def _value_text(draw, key: str, clean: bool) -> str:
    if not clean:
        return draw(st.sampled_from(_VALUE_TEXTS[key]))
    if key in ("ts", "at"):
        return repr(draw(timestamps))
    if key in ("peer", "origin"):
        return str(draw(asns))
    if key == "prefix":
        return f'"{draw(prefixes)}"'
    if key == "path":
        return json.dumps(draw(st.lists(asns, min_size=1, max_size=3)))
    return _VALUE_TEXTS[key][draw(st.integers(min_value=0, max_value=1))]


@st.composite
def json_ish_lines(draw) -> bytes:
    """One line a collector or a client could send: JSON, nearly JSON, not JSON.

    A trace record's or an event's keys (mostly with valid values, some
    dropped or repeated, sometimes any value), then maybe cut short,
    given trailing data or surrounding whitespace, doubled, replaced by a
    non-object value, or given bytes that are not UTF-8.
    """
    keys = list(draw(st.sampled_from((_RECORD_KEYS, _EVENT_KEYS))))
    keys += draw(st.lists(st.sampled_from(sorted(_VALUE_TEXTS)), max_size=2))
    keys = draw(st.permutations(keys))[: draw(st.integers(min_value=len(keys) - 1,
                                                          max_value=len(keys)))]
    clean = draw(st.integers(min_value=0, max_value=3)) > 0
    colon, comma = draw(st.sampled_from(((":", ","), (": ", ", "), (" : ", " , "))))
    text = "{" + comma.join(
        f'"{key}"{colon}{draw(_value_text(key, clean))}' for key in keys
    ) + "}"
    shape = draw(st.sampled_from(
        ("whole", "whole", "whole", "cut", "tail", "lead", "twice", "array", "scalar")
    ))
    if shape == "cut":
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    elif shape == "tail":
        text += draw(st.sampled_from(_TAILS)) + draw(st.sampled_from(_TAILS))
    elif shape == "lead":
        text = draw(st.sampled_from(_TAILS)) + text
    elif shape == "twice":
        text += text
    elif shape == "array":
        text = "[" + text + "]"
    elif shape == "scalar":
        text = draw(st.sampled_from(_NUMBERS + ('"x"', "[1,2]")))
    raw = text.encode("utf-8")
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        cut = draw(st.integers(min_value=0, max_value=len(raw)))
        bad = draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80")))
        raw = raw[:cut] + bad + raw[cut:]
    return raw


def _json_loads_reference(line: str) -> object:
    """How a line read before the single scan: ``json.loads``, any failure
    of it (a decode error, the digit limit, the recursion limit) named as
    invalid JSON."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as error:
        raise ValueError(f"invalid JSON: {error}") from error


def _reference_row(line: str, number: int) -> object:
    """The reader's row for a ``{`` line, or its error text, via ``json.loads``."""
    try:
        payload = _json_loads_reference(line)
    except ValueError as error:
        return str(error)
    if not isinstance(payload, dict):
        return f"record must be an object, got {type(payload).__name__}"
    path = payload.get("path")
    if not isinstance(path, list):
        return f"missing/invalid path {path!r}"
    try:
        return records_module._build_row(
            number, payload.get("type"), payload.get("ts"), payload.get("peer"),
            payload.get("prefix"), path,
        )
    except TraceFormatError as error:
        return str(error)


def _reference_event(line: str) -> object:
    """``parse_event_line``'s event or error text, via ``json.loads``."""
    try:
        return event_from_dict(_json_loads_reference(line))
    except (ValueError, StreamFormatError) as error:
        return str(error)


def _event_or_error(line: str) -> object:
    try:
        return parse_event_line(line)
    except StreamFormatError as error:
        return str(error)


@settings(max_examples=example_budget(200), deadline=None)
@given(st.lists(json_ish_lines(), min_size=1, max_size=12))
def test_single_scan_decodes_like_json_loads(raw_lines):
    """The trace reader and the event parser read every line as ``json.loads``
    would: the same row or event, or the same error text."""
    texts = [raw.decode("utf-8", "replace").strip() for raw in raw_lines]
    for text in texts:
        if text:
            assert _event_or_error(text) == _reference_event(text)

    with tempfile.TemporaryDirectory() as directory:
        trace = Path(directory) / "updates.trace"
        trace.write_bytes(b"".join(raw + b"\n" for raw in raw_lines))
        reader = TraceReader(trace)
        rows = list(reader.rows())
    expected_rows, expected_errors = [], []
    for number, text in enumerate(texts, start=1):
        if not text or text[0] != "{":
            continue  # blank, or read as TSV: not this property's subject
        outcome = _reference_row(text, number)
        if isinstance(outcome, str):
            expected_errors.append(f"{trace}:{number}: {outcome}")
        else:
            expected_rows.append(outcome)
    json_rows = [row for row in rows if texts[row[0] - 1][0] == "{"]
    json_errors = [
        error for error in reader.errors
        if texts[int(error[len(str(trace)) + 1:].split(":")[0]) - 1][0] == "{"
    ]
    assert json_rows == expected_rows
    assert json_errors == expected_errors
    assert (reader.lines, reader.records + reader.malformed) == (
        len(raw_lines), sum(1 for text in texts if text and text[0] != "#")
    )


def _line_outcomes(trace: Path) -> tuple[list[TraceRow], set[int]]:
    """Every row of a whole pass, and the numbers of the malformed lines."""
    reader = TraceReader(trace)
    rows = list(reader.rows())
    bad = {int(error[len(str(trace)) + 1:].split(":")[0]) for error in reader.errors}
    assert len(bad) == reader.malformed
    return rows, bad


def _stop_early(stream, count: int):
    """Hand on *count* items, then return without closing *stream* (the
    shape of a consumer that ends its window and lets the stream go)."""
    for item in islice(stream, count):
        yield item


@settings(max_examples=example_budget(100), deadline=None)
@given(feed_lines(), st.integers(min_value=0, max_value=20),
       st.sampled_from(("close", "release", "pipeline")))
def test_counts_are_exact_when_a_stream_is_abandoned(lines, taken, how):
    """``islice`` a compiled feed, then stop: the reader's ``lines``,
    ``records`` and ``malformed`` and the compiler's ``events`` count
    exactly the lines read to produce the events handed on, whether the
    stream is closed, dropped by a consumer that stopped, or read through
    :class:`TracePipeline` (whose ``stats`` the benchmark's
    ``records + malformed == lines`` check reads)."""
    with tempfile.TemporaryDirectory() as directory:
        trace = Path(directory) / "updates.trace"
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows, bad = _line_outcomes(trace)
        event_lines = [row[0] for row in rows if row[1] != "rib"]
        if taken == 0:
            expected = (0, 0, 0, 0)
        elif taken <= len(event_lines):
            last = event_lines[taken - 1]
            expected = (
                last, sum(1 for row in rows if row[0] <= last),
                sum(1 for number in bad if number <= last), taken,
            )
        else:  # the whole feed
            with trace.open("rb") as handle:
                expected = (sum(1 for _ in handle), len(rows), len(bad), len(event_lines))

        if how == "pipeline":
            pipeline = TracePipeline(updates_path=trace)
            list(_stop_early(pipeline.events(), taken))
            stats = pipeline.stats()["updates"]
            counted = (stats["lines"], stats["records"], stats["malformed"],
                       stats.get("events", 0))
        else:
            reader = TraceReader(trace)
            compiler = compile_updates(reader)
            if how == "close":
                stream = iter(compiler)
                handed = list(islice(stream, taken))
                stream.close()
            else:
                handed = list(_stop_early(compiler, taken))
            assert len(handed) == min(taken, len(event_lines))
            counted = (reader.lines, reader.records, reader.malformed, compiler.events)
    assert counted == expected


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
        ProbeSet("pair", frozenset([10, 20])), authority=replayer.authority
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
    ingested = list(compile_updates(_read_back(lines)))
    assert ingested == events
    assert _replay_report(ingested) == _replay_report(events)
