"""The ingest layer: golden-trace pins, malformed battery, feed tailing.

Three fronts, per ``docs/ingestion.md``:

* the committed golden trace (``tests/fixtures/``) must reproduce its
  pinned monitor report **byte-for-byte** through the real CLI and
  value-identically through both routing backends — and regenerating
  the fixtures must produce the committed bytes (no drift);
* malformed input is table-driven: lenient mode counts and continues
  (``ingest.malformed`` and friends), strict mode raises with
  ``path:line`` coordinates; a newline-free line past 1 MiB is one
  malformed line in both the trace reader and the daemon feed;
* the daemon's tailed-feed path survives mid-follow truncation and
  rotation (the read position is re-anchored, counted via
  ``service.feed.reopened``) and holds back partial lines.
"""

from __future__ import annotations

import asyncio
import gzip
import json
import os

import pytest

from repro.attacks.lab import HijackLab
from repro.detection.probes import ProbeSet, tier1_probes
from repro.ingest import (
    TraceFormatError,
    TracePipeline,
    TraceReader,
    TraceRecord,
    compile_rib,
    compile_updates,
    run_ingest,
)
from repro.obs.metrics import Metrics
from repro.prefixes.prefix import Prefix
from repro.service.api import ServiceDaemon
from repro.service.daemon import MonitorService
from repro.stream.events import parse_event_line
from repro.topology.caida import load_caida_mmap
from repro.util.lines import _MAX_LINE_BYTES, LineSplitter
from tests.conftest import build_mini_graph
from tests.fixtures import make_golden_traces as golden
from tests.trace_writer import format_record

FIXTURES = golden.FIXTURES_DIR
TOPOLOGY = FIXTURES / golden.GOLDEN_TOPOLOGY
RIB = FIXTURES / golden.GOLDEN_RIB
UPDATES = FIXTURES / golden.GOLDEN_UPDATES
REPORT = FIXTURES / golden.GOLDEN_REPORT

GOOD_JSON = '{"path":[50],"peer":1,"prefix":"2.40.0.0/13","ts":1.0,"type":"announce"}'
GOOD_JSON_LATER = (
    '{"path":[60],"peer":1,"prefix":"2.48.0.0/13","ts":2.0,"type":"announce"}'
)


# -- golden trace ----------------------------------------------------------


class TestGoldenTrace:
    def test_fixture_regeneration_has_no_drift(self, tmp_path):
        """The committed fixtures are exactly what the generator writes."""
        regenerated = golden.write_fixtures(tmp_path / "fixtures")
        for name, path in regenerated.items():
            assert path.read_bytes() == (FIXTURES / name).read_bytes(), name

    def test_cli_reproduces_pinned_report_byte_for_byte(self, tmp_path):
        from repro.cli import main

        report = tmp_path / "report.json"
        exit_code = main([
            "ingest",
            "--topology", str(TOPOLOGY),
            "--rib", str(RIB),
            "--updates", str(UPDATES),
            "--strict",
            "--seed-roas",
            "--report", str(report),
        ])
        assert exit_code == 0
        assert report.read_bytes() == REPORT.read_bytes()

    @pytest.mark.parametrize("backend", ["reference", "array"])
    def test_pipeline_matches_pinned_report_on_both_backends(self, backend):
        graph = load_caida_mmap(TOPOLOGY)
        lab = HijackLab(graph, seed=2014, backend=backend)
        pipeline = TracePipeline(
            rib_path=RIB, updates_path=UPDATES, strict=True, seed_roas=True
        )
        result = run_ingest(lab, pipeline, probes=tier1_probes(graph))
        assert result.as_dict() == json.loads(REPORT.read_text(encoding="utf-8"))

    def test_pinned_report_catches_all_three_attacks(self):
        """Semantic floor under the byte pin: the hijacks were caught."""
        payload = json.loads(REPORT.read_text(encoding="utf-8"))
        monitor = payload["replay"]["monitor"]
        alarms = monitor["alarms"]
        assert [alarm["verdict"] for alarm in alarms] == ["hijack", "hijack"]
        assert all(alarm["invalid_origins"] == [60] for alarm in alarms)
        assert payload["ingest"]["updates"]["malformed"] == 0

    def test_compile_only_emits_the_event_stream(self, tmp_path):
        from repro.cli import main

        compiled = tmp_path / "compiled.jsonl"
        exit_code = main([
            "ingest",
            "--topology", str(TOPOLOGY),
            "--rib", str(RIB),
            "--updates", str(UPDATES),
            "--seed-roas",
            "--compile-only", str(compiled),
        ])
        assert exit_code == 0
        events = [
            parse_event_line(line)
            for line in compiled.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        # 4 ROAs + 4 baseline announces + 6 update deltas
        assert len(events) == 14

    def test_baseline_legal_origins_and_roa_wave(self):
        baseline = compile_rib(TraceReader(RIB))
        prefix_50 = Prefix.parse("2.40.0.0/13")
        assert baseline.origins.get(prefix_50) == {50}
        assert baseline.origins.get(next(prefix_50.subnets())) is None
        assert baseline.peers == {1, 2}
        # What ``serve --rib`` registers and publishes: one ROA per origin.
        assert {roa.origin_asn for roa in baseline.roa_wave()} == {50, 60, 70, 80}


# -- record/trace I/O ------------------------------------------------------


def test_gzip_trace_roundtrip(tmp_path):
    records = [
        TraceRecord("announce", 1.0, 1, Prefix.parse("10.0.0.0/16"), (50,)),
        TraceRecord("withdraw", 2.0, 1, Prefix.parse("10.0.0.0/16"), (50,)),
    ]
    path = tmp_path / "trace.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.writelines(format_record(record) + "\n" for record in records)
    assert list(TraceReader(path)) == records


def _unreadable_gzip(kind: str) -> bytes:
    """A ``.gz`` trace that fails to read: not gzip, cut short, or with a
    corrupt deflate stream."""
    if kind == "not-gzip":
        return f"{GOOD_JSON}\n".encode()
    data = gzip.compress(f"{GOOD_JSON}\n{GOOD_JSON_LATER}\n".encode() * 200)
    if kind == "truncated":
        return data[: len(data) // 2]
    return data[:12] + b"\xff" + data[13:]


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("kind", ["not-gzip", "truncated", "corrupt-deflate"])
def test_unreadable_gzip_raises_a_trace_format_error(tmp_path, kind, strict):
    """A read failure is no malformed line to count: both modes stop with
    one TraceFormatError that names the file."""
    path = tmp_path / "trace.jsonl.gz"
    path.write_bytes(_unreadable_gzip(kind))
    reader = TraceReader(path, strict=strict)
    with pytest.raises(TraceFormatError) as caught:
        list(reader.rows())
    assert str(caught.value).startswith(f"{path}: ")
    assert reader.malformed == 0


def test_tsv_trace_roundtrip(tmp_path):
    records = [TraceRecord("rib", 0.5, 7018, Prefix.parse("10.0.0.0/8"), (7018, 50))]
    path = tmp_path / "trace.tsv"
    path.write_text(format_record(records[0], encoding="tsv") + "\n", encoding="utf-8")
    assert list(TraceReader(path)) == records


# -- malformed battery -----------------------------------------------------

# int() and float() read these; no JSON number can carry them, so the
# TSV encoding refuses them too, with the message its field always had.
TSV_NUMBER_REFUSALS = [
    ("tsv-underscore-peer", "1.0\tannounce\t64_512\t2.0.0.0/8\t50", "non-integer peer ASN"),
    ("tsv-underscore-hop", "1.0\tannounce\t1\t2.0.0.0/8\t50 64_512", "non-integer path hop"),
    ("tsv-underscore-ts", "1_0.5\tannounce\t1\t2.0.0.0/8\t50", "missing/invalid timestamp"),
    ("tsv-fullwidth-peer", "1.0\tannounce\t\uff16\uff14\uff15\uff11\uff12\t2.0.0.0/8\t50",
     "non-integer peer ASN"),
    ("tsv-fullwidth-hop", "1.0\tannounce\t1\t2.0.0.0/8\t\uff15\uff10", "non-integer path hop"),
    ("tsv-arabic-indic-ts", "\u0661.\u0660\tannounce\t1\t2.0.0.0/8\t50",
     "missing/invalid timestamp"),
    ("tsv-signed-padded-peer", "1.0\tannounce\t +5 \t2.0.0.0/8\t50", "non-integer peer ASN"),
    ("tsv-signed-hop", "1.0\tannounce\t1\t2.0.0.0/8\t50 +60", "non-integer path hop"),
    ("tsv-padded-ts", "1.0 \tannounce\t1\t2.0.0.0/8\t50", "missing/invalid timestamp"),
]

MALFORMED_LINES = [
    ("truncated-json", '{"path":[50],"peer":1,"prefix":"2.0.0.0/8","ts":1.0'),
    ("non-object-json", '["not","a","record"]'),
    ("unknown-type", '{"path":[50],"peer":1,"prefix":"2.0.0.0/8","ts":1.0,"type":"nope"}'),
    ("empty-path", '{"path":[],"peer":1,"prefix":"2.0.0.0/8","ts":1.0,"type":"rib"}'),
    ("asn-zero", '{"path":[0],"peer":1,"prefix":"2.0.0.0/8","ts":1.0,"type":"rib"}'),
    ("asn-overflow",
     '{"path":[4294967296],"peer":1,"prefix":"2.0.0.0/8","ts":1.0,"type":"rib"}'),
    ("boolean-peer", '{"path":[50],"peer":true,"prefix":"2.0.0.0/8","ts":1.0,"type":"rib"}'),
    ("bad-prefix", '{"path":[50],"peer":1,"prefix":"300.0.0.0/8","ts":1.0,"type":"rib"}'),
    ("bad-mask", '{"path":[50],"peer":1,"prefix":"2.0.0.0/40","ts":1.0,"type":"rib"}'),
    # str.isdigit() accepts both; int() rejects the first and reads the
    # second as "2.0.0.0/8".
    ("superscript-mask", '{"path":[50],"peer":1,"prefix":"2.0.0.0/2\u00b2","ts":1.0,"type":"rib"}'),
    ("arabic-indic-octet",
     '{"path":[50],"peer":1,"prefix":"\u0662.0.0.0/8","ts":1.0,"type":"rib"}'),
    ("tsv-superscript-mask", "1.0\tannounce\t1\t10.0.1.0/2\u00b2\t50"),
    ("missing-ts", '{"path":[50],"peer":1,"prefix":"2.0.0.0/8","type":"rib"}'),
    ("nan-ts", '{"path":[50],"peer":1,"prefix":"2.0.0.0/8","ts":NaN,"type":"rib"}'),
    ("int-ts-past-float",
     '{"path":[50],"peer":1,"prefix":"2.0.0.0/8","ts":1%s,"type":"rib"}' % ("0" * 400)),
    # json.loads raises ValueError past int()'s digit limit and
    # RecursionError past the recursion limit; each is one bad line.
    ("json-int-past-digit-limit",
     '{"path":[50],"peer":%s,"prefix":"2.0.0.0/8","ts":1.0,"type":"rib"}' % ("9" * 5000)),
    ("json-nested-past-recursion-limit",
     '{"path":%s,"peer":1,"prefix":"2.0.0.0/8","ts":1.0,"type":"rib"}'
     % ("[" * 100_000 + "]" * 100_000)),
    ("tsv-too-few-fields", "1.0\tannounce\t1\t2.0.0.0/8"),
    ("tsv-bad-timestamp", "soon\tannounce\t1\t2.0.0.0/8\t50"),
    ("tsv-bad-path-hop", "1.0\tannounce\t1\t2.0.0.0/8\t50 sixty"),
    *((label, line) for label, line, _message in TSV_NUMBER_REFUSALS),
]


@pytest.mark.parametrize(
    "line", [line for _label, line in MALFORMED_LINES],
    ids=[label for label, _line in MALFORMED_LINES],
)
class TestMalformedLines:
    def test_lenient_counts_and_continues(self, tmp_path, line):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            f"{GOOD_JSON}\n{line}\n{GOOD_JSON_LATER}\n", encoding="utf-8"
        )
        metrics = Metrics()
        reader = TraceReader(trace, metrics=metrics)
        records = list(reader)
        assert [record.origin_asn for record in records] == [50, 60]
        assert reader.malformed == 1
        assert metrics.counters["ingest.malformed"] == 1
        assert metrics.counters["ingest.records"] == 2

    def test_strict_raises_with_line_coordinates(self, tmp_path, line):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            f"{GOOD_JSON}\n{line}\n{GOOD_JSON_LATER}\n", encoding="utf-8"
        )
        with pytest.raises(TraceFormatError) as caught:
            list(TraceReader(trace, strict=True))
        assert f"{trace}:2:" in str(caught.value)


# The last row: a non-ASCII line whose numbers are fine blames its prefix.
@pytest.mark.parametrize(
    "line, message",
    [(line, message) for _label, line, message in TSV_NUMBER_REFUSALS]
    + [("1.0\tannounce\t1\t\u0662.0.0.0/8\t50", "bad prefix")],
    ids=[label for label, _line, _message in TSV_NUMBER_REFUSALS] + ["tsv-arabic-indic-octet"],
)
def test_tsv_refusals_keep_the_field_message(line, message, tmp_path):
    trace = tmp_path / "trace.tsv"
    trace.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match=message):
        list(TraceReader(trace, strict=True))


def test_compiling_a_reader_builds_no_trace_record_per_line(tmp_path, monkeypatch):
    """A reader feeds the compilers rows; only iterating it builds records."""
    lines = [
        format_record(
            TraceRecord(kind, float(index), 1, Prefix.parse("2.0.0.0/8"), (50,)),
            encoding=("jsonl", "tsv")[index % 2],
        )
        for index, kind in enumerate(["announce", "withdraw"] * 50)
    ]
    trace = tmp_path / "trace.trace"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    built = []
    post_init = TraceRecord.__post_init__

    def counting(record):
        built.append(record.line)
        post_init(record)

    monkeypatch.setattr(TraceRecord, "__post_init__", counting)
    compiler = compile_updates(TraceReader(trace))
    assert len(list(compiler)) == compiler.events == 100
    assert built == []
    assert compile_rib(TraceReader(trace)).misplaced == 100
    assert built == []
    assert len(list(TraceReader(trace))) == 100
    assert built == list(range(1, 101))


class TestCompilerAnomalies:
    def _rib(self, peer, prefix, origin, at=0.0, line=0):
        return TraceRecord("rib", at, peer, Prefix.parse(prefix), (peer, origin),
                           line=line)

    def test_duplicate_rib_entries_lenient_keeps_first(self):
        metrics = Metrics()
        records = [
            self._rib(1, "2.0.0.0/8", 50, line=1),
            self._rib(1, "2.0.0.0/8", 60, line=2),  # duplicate (peer, prefix)
            self._rib(2, "2.0.0.0/8", 50, line=3),  # same prefix, other peer: fine
        ]
        baseline = compile_rib(records, metrics=metrics)
        assert baseline.entries == 2
        assert baseline.duplicates == 1
        assert baseline.origins.get(Prefix.parse("2.0.0.0/8")) == {50}
        assert metrics.counters["ingest.duplicate_rib"] == 1

    def test_duplicate_rib_entries_strict_raises_with_line(self):
        records = [
            self._rib(1, "2.0.0.0/8", 50, line=1),
            self._rib(1, "2.0.0.0/8", 60, line=2),
        ]
        with pytest.raises(TraceFormatError, match=r"<rib>:2: duplicate RIB entry"):
            compile_rib(records, strict=True)

    def test_update_in_rib_dump_is_misplaced(self):
        metrics = Metrics()
        records = [
            self._rib(1, "2.0.0.0/8", 50),
            TraceRecord("announce", 1.0, 1, Prefix.parse("2.0.0.0/8"), (60,)),
        ]
        baseline = compile_rib(records, metrics=metrics)
        assert baseline.misplaced == 1
        assert metrics.counters["ingest.misplaced"] == 1

    def test_out_of_order_updates_lenient_still_yield(self):
        metrics = Metrics()
        records = [
            TraceRecord("announce", 5.0, 1, Prefix.parse("2.0.0.0/8"), (50,)),
            TraceRecord("announce", 3.0, 1, Prefix.parse("2.0.0.0/8"), (60,), line=2),
            TraceRecord("withdraw", 6.0, 1, Prefix.parse("2.0.0.0/8"), (60,)),
        ]
        compiler = compile_updates(records, metrics=metrics)
        events = list(compiler)
        assert [event.at for event in events] == [5.0, 3.0, 6.0]
        assert compiler.out_of_order == 1
        assert metrics.counters["ingest.out_of_order"] == 1

    def test_out_of_order_updates_strict_raises_with_line(self):
        records = [
            TraceRecord("announce", 5.0, 1, Prefix.parse("2.0.0.0/8"), (50,)),
            TraceRecord("announce", 3.0, 1, Prefix.parse("2.0.0.0/8"), (60,), line=2),
        ]
        with pytest.raises(TraceFormatError, match=r"<updates>:2: timestamp"):
            list(compile_updates(records, strict=True))

    def test_rib_record_in_update_feed_is_misplaced(self):
        records = [
            TraceRecord("announce", 1.0, 1, Prefix.parse("2.0.0.0/8"), (50,)),
            self._rib(1, "2.0.0.0/8", 50, at=2.0),
        ]
        compiler = compile_updates(records)
        assert len(list(compiler)) == 1
        assert compiler.misplaced == 1


OVERLONG = "x" * (5 << 20)  # 5 MiB with no newline


@pytest.mark.parametrize("chunk_size", [1 << 20, 1 << 16], ids=["1MiB", "64KiB"])
class TestOverlongLine:
    """A newline-free line past 1 MiB is one malformed line, held bounded."""

    def _trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            f"{GOOD_JSON}\n{OVERLONG}\n{GOOD_JSON_LATER}\nnot a record\n",
            encoding="utf-8",
        )
        return trace

    def test_lenient_drops_it_and_keeps_line_numbers(self, tmp_path, chunk_size):
        metrics = Metrics()
        trace = self._trace(tmp_path)
        reader = TraceReader(trace, metrics=metrics, chunk_size=chunk_size)
        records = list(reader)
        assert [record.origin_asn for record in records] == [50, 60]
        assert [record.line for record in records] == [1, 3]
        assert reader.malformed == 2 and reader.lines == 4
        assert metrics.counters["ingest.malformed"] == 2
        assert f"{trace}:2:" in reader.errors[0]
        assert f"{trace}:4:" in reader.errors[1]

    def test_strict_raises_with_line_coordinates(self, tmp_path, chunk_size):
        trace = self._trace(tmp_path)
        with pytest.raises(TraceFormatError, match="without a newline") as caught:
            list(TraceReader(trace, strict=True, chunk_size=chunk_size))
        assert f"{trace}:2:" in str(caught.value)

    def test_unterminated_at_eof_counts_once(self, tmp_path, chunk_size):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(f"{GOOD_JSON}\n{OVERLONG}", encoding="utf-8")
        reader = TraceReader(trace, chunk_size=chunk_size)
        assert [record.origin_asn for record in reader] == [50]
        assert reader.malformed == 1 and reader.lines == 2


def test_line_splitter_common_path_matches_plain_split():
    """Under the bound the splitter is the plain carry-and-split loop."""
    data = b"".join(b"line %d %s\n" % (i, b"y" * (i * 37 % 300)) for i in range(400))
    data += b"no newline at the end"
    for chunk_size in (1, 7, 64, 4096, len(data)):
        splitter = LineSplitter()
        lines = []
        for start in range(0, len(data), chunk_size):
            lines.extend(splitter.feed(data[start:start + chunk_size]))
        lines.append(splitter.finish())
        assert lines == data.split(b"\n")


def test_line_splitter_holds_a_bounded_fragment():
    splitter = LineSplitter()
    emitted = []
    for _ in range(80):  # 5 MiB in 64 KiB chunks
        emitted.extend(splitter.feed(b"z" * (1 << 16)))
        assert len(splitter._fragment) <= _MAX_LINE_BYTES
    assert emitted == [None]
    assert splitter.feed(b"tail\nnext\n") == [b"next"]
    assert splitter.finish() == b""


def test_cli_strict_mode_fails_on_malformed_trace(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "bad.jsonl"
    trace.write_text(f"{GOOD_JSON}\nnot a record\n", encoding="utf-8")
    exit_code = main([
        "ingest", "--topology", str(TOPOLOGY), "--updates", str(trace), "--strict",
    ])
    assert exit_code == 1
    assert f"{trace}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--rib", "--updates"])
@pytest.mark.parametrize("kind", ["not-gzip", "truncated"])
def test_cli_ingest_unreadable_gzip_exits_1_with_one_line(tmp_path, capsys, kind, option):
    from repro.cli import main

    trace = tmp_path / "trace.jsonl.gz"
    trace.write_bytes(_unreadable_gzip(kind))
    assert main(["ingest", "--topology", str(TOPOLOGY), option, str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"trace error: {trace}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["not-gzip", "truncated"])
def test_cli_serve_unreadable_gzip_rib_exits_1_before_listening(tmp_path, capsys, kind):
    """``serve --rib`` reads the RIB before it listens, so the trace
    error ends the command with no socket opened."""
    from repro.cli import main

    rib = tmp_path / "rib.jsonl.gz"
    rib.write_bytes(_unreadable_gzip(kind))
    assert main([
        "serve", "--topology", str(TOPOLOGY), "--port", "0", "--rib", str(rib),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"trace error: {rib}: ")
    assert "Traceback" not in captured.err


def test_pipeline_requires_some_input():
    with pytest.raises(ValueError, match="RIB dump, an update feed, or both"):
        TracePipeline()


# -- daemon feed tailing ---------------------------------------------------


def _event_line(at, prefix, origin):
    return json.dumps(
        {"kind": "announce", "at": at, "prefix": prefix, "origin": origin}
    )


def _daemon():
    lab = HijackLab(build_mini_graph(), seed=1)
    service = MonitorService(
        lab, probes=ProbeSet("pair", frozenset([10, 20])), metrics=Metrics()
    )
    return ServiceDaemon(service)


async def _wait_for(predicate, *, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            pytest.fail("timed out waiting for the daemon feed to catch up")
        await asyncio.sleep(0.02)


class TestDaemonFeed:
    def test_oneshot_feed_counts_malformed_and_trailing_line(self, tmp_path):
        async def scenario():
            daemon = _daemon()
            await daemon.start()
            feed = tmp_path / "feed.jsonl"
            # garbage in the middle, final line without a trailing newline
            feed.write_text(
                _event_line(0.0, "10.0.0.0/16", 50) + "\n"
                + "garbage that parses as nothing\n"
                + "\n"
                + _event_line(1.0, "10.1.0.0/16", 60),
                encoding="utf-8",
            )
            daemon.feed_file(feed)
            await asyncio.gather(*daemon._feeds)
            service = daemon.service
            assert service.plane.ingested == 2
            assert service.replayer.counts["malformed"] == 1
            await daemon.stop()

        asyncio.run(scenario())

    def test_oneshot_feed_drops_an_overlong_line(self, tmp_path):
        async def scenario():
            daemon = _daemon()
            await daemon.start()
            feed = tmp_path / "feed.jsonl"
            feed.write_text(
                _event_line(0.0, "10.0.0.0/16", 50) + "\n"
                + OVERLONG + "\n"
                + _event_line(1.0, "10.1.0.0/16", 60) + "\n",
                encoding="utf-8",
            )
            daemon.feed_file(feed)
            await asyncio.gather(*daemon._feeds)
            service = daemon.service
            assert service.plane.ingested == 2
            assert service.replayer.counts["malformed"] == 1
            assert service.metrics.counters["stream.replay.malformed"] == 1
            await daemon.stop()

        asyncio.run(scenario())

    def test_follow_survives_truncation(self, tmp_path):
        async def scenario():
            daemon = _daemon()
            await daemon.start()
            service = daemon.service
            feed = tmp_path / "feed.jsonl"
            feed.write_text(
                _event_line(0.0, "10.0.0.0/16", 50) + "\n"
                + _event_line(1.0, "10.1.0.0/16", 60) + "\n",
                encoding="utf-8",
            )
            daemon.feed_file(feed, follow=True)
            await _wait_for(lambda: service.plane.ingested >= 2)

            # Truncate: the file is rewritten shorter in place. The old
            # read offset now points past EOF and must be abandoned.
            feed.write_text(
                _event_line(2.0, "10.2.0.0/16", 70) + "\n", encoding="utf-8"
            )
            await _wait_for(lambda: service.plane.ingested >= 3)
            assert service.metrics.counters["service.feed.reopened"] == 1
            assert service.replayer.counts["malformed"] == 0
            await daemon.stop()

        asyncio.run(scenario())

    def test_follow_survives_rotation(self, tmp_path):
        async def scenario():
            daemon = _daemon()
            await daemon.start()
            service = daemon.service
            feed = tmp_path / "feed.jsonl"
            first = _event_line(0.0, "10.0.0.0/16", 50) + "\n"
            feed.write_text(first, encoding="utf-8")
            daemon.feed_file(feed, follow=True)
            await _wait_for(lambda: service.plane.ingested >= 1)

            # Rotate: a new file replaces the path. Pad the replacement
            # beyond the old offset so only the inode change — not a
            # shrunken size — can trigger the reopen.
            replacement = tmp_path / "feed.jsonl.new"
            padding = " " * (len(first) + 16) + "\n"
            replacement.write_text(
                padding + _event_line(2.0, "10.2.0.0/16", 70) + "\n",
                encoding="utf-8",
            )
            os.replace(replacement, feed)
            await _wait_for(lambda: service.plane.ingested >= 2)
            assert service.metrics.counters["service.feed.reopened"] == 1
            assert service.replayer.counts["malformed"] == 0
            await daemon.stop()

        asyncio.run(scenario())

    def test_follow_holds_back_partial_lines(self, tmp_path):
        async def scenario():
            daemon = _daemon()
            await daemon.start()
            service = daemon.service
            feed = tmp_path / "feed.jsonl"
            whole = _event_line(0.0, "10.0.0.0/16", 50) + "\n"
            partial = _event_line(1.0, "10.1.0.0/16", 60)
            feed.write_text(whole + partial[:20], encoding="utf-8")
            daemon.feed_file(feed, follow=True)
            await _wait_for(lambda: service.plane.ingested >= 1)

            # a writer caught mid-line must not yield a malformed count
            await asyncio.sleep(0.3)
            assert service.plane.ingested == 1
            assert service.replayer.counts["malformed"] == 0

            with feed.open("a", encoding="utf-8") as handle:
                handle.write(partial[20:] + "\n")
            await _wait_for(lambda: service.plane.ingested >= 2)
            assert service.replayer.counts["malformed"] == 0
            await daemon.stop()

        asyncio.run(scenario())
