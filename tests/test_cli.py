"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "topo.txt"
    assert main(["generate", "--as-count", "400", "-o", str(path)]) == 0
    return path


# What a minimal command line of each subcommand parses to, beyond the
# global options: every default the option groups could move.
PARSED_OPTIONS = [
    (["generate", "-o", "t.txt"],
     {"as_count": 4270, "regions": None, "output": Path("t.txt")}),
    (["summarize"], {"input": None, "as_count": 4270}),
    (["attack", "--target", "1", "--attacker", "2"],
     {"target": 1, "attacker": 2, "input": None, "as_count": 4270,
      "kind": "origin", "path_kind": "type-0", "forged_depth": 1,
      "validate": False}),
    (["sweep", "--target", "1"],
     {"target": 1, "input": None, "as_count": 4270, "sample": None,
      "transit_only": False, "kind": "origin", "path_kind": "type-0",
      "forged_depth": 1, "validate": False}),
    (["figure", "fig2"],
     {"name": "fig2", "output_dir": Path("results"), "as_count": 4270,
      "sample": 1200, "attacks": 8000, "store": None, "validate": False}),
    (["plan", "--region", "R00"],
     {"region": "R00", "target": None, "input": None, "as_count": 4270}),
    (["calibrate"],
     {"input": None, "as_count": 4270, "agreement_samples": 10,
      "path_samples": 60}),
    (["validate"], {"cases": 200, "max_size": 28, "as_count": 900, "attacks": 12}),
    (["stream"],
     {"input": None, "attacks": 5, "as_count": 4270, "topology": None,
      "probes": "tier1", "batch_window": 0.0, "queue_limit": 64,
      "publish_roas": False, "dwell": None, "compile_only": None,
      "report": None, "validate": False, "fail_on_hijack": False}),
    (["ingest"],
     {"rib": None, "updates": None, "as_count": 4270, "topology": None,
      "probes": "tier1", "strict": False, "seed_roas": False,
      "batch_window": 0.0, "queue_limit": 64, "compile_only": None,
      "report": None, "fail_on_hijack": False}),
    (["serve"],
     {"host": "127.0.0.1", "port": 8470, "shards": 1, "as_count": 4270,
      "topology": None, "probes": "top-degree", "batch_window": 0.0,
      "queue_limit": 64, "input": None, "follow": False, "rib": None}),
    (["report"],
     {"output": Path("EXPERIMENTS.md"), "output_dir": Path("results"),
      "as_count": 4270, "sample": 1200, "attacks": 8000}),
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_batch_origins_flag_is_gone(self):
        """The fused sweep width is the lab's constant, not an option."""
        with pytest.raises(SystemExit) as exited:
            main(["--batch-origins", "4", "sweep", "--target", "300"])
        assert exited.value.code == 2

    def test_subprefix_flag_is_gone(self):
        """``--kind subprefix`` is the one spelling of a subprefix attack."""
        with pytest.raises(SystemExit) as exited:
            main(["attack", "--target", "300", "--attacker", "30", "--subprefix"])
        assert exited.value.code == 2

    @pytest.mark.parametrize(
        "argv, options", PARSED_OPTIONS, ids=[argv[0] for argv, _ in PARSED_OPTIONS]
    )
    def test_parsed_options_are_pinned(self, argv, options):
        """Every subcommand's defaults, as a minimal command line parses
        them: shared option groups must not move one."""
        parsed = vars(build_parser().parse_args(argv))
        assert parsed == {
            "seed": 2014, "backend": "reference", "metrics": None,
            "command": argv[0], **options,
        }


class TestCommands:
    def test_generate_writes_caida_file(self, topo_file):
        lines = topo_file.read_text().splitlines()
        assert lines[0].startswith("#")
        assert all("|" in line for line in lines[1:])

    def test_summarize_from_file(self, topo_file, capsys):
        assert main(["summarize", "-i", str(topo_file)]) == 0
        output = capsys.readouterr().out
        assert "ASes: 400" in output
        assert "tier-1:" in output

    def test_attack(self, topo_file, capsys):
        assert main(["attack", "--target", "300", "--attacker", "30",
                     "-i", str(topo_file)]) == 0
        output = capsys.readouterr().out
        assert "polluted ASes:" in output

    def test_attack_backend_knob_changes_nothing(self, topo_file, capsys):
        """--backend array must produce byte-identical command output —
        the backend is a wall-clock knob, never a result knob."""
        assert main(["attack", "--target", "300", "--attacker", "30",
                     "-i", str(topo_file)]) == 0
        reference_out = capsys.readouterr().out
        assert main(["--backend", "array",
                     "attack", "--target", "300", "--attacker", "30",
                     "-i", str(topo_file)]) == 0
        assert capsys.readouterr().out == reference_out

    def test_backend_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "gpu", "attack",
                                       "--target", "1", "--attacker", "2"])

    def test_attack_subprefix(self, topo_file, capsys):
        assert main(["attack", "--target", "300", "--attacker", "30",
                     "--kind", "subprefix", "-i", str(topo_file)]) == 0
        assert "subprefix hijack" in capsys.readouterr().out

    def test_sweep(self, topo_file, capsys):
        assert main(["sweep", "--target", "300", "--sample", "40",
                     "-i", str(topo_file)]) == 0
        output = capsys.readouterr().out
        assert "mean pollution" in output
        assert "CCDF" in output

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--target", "999999", "--attacker", "30"],
            ["attack", "--target", "300", "--attacker", "999999"],
            ["attack", "--target", "1", "--attacker", "1"],
            ["sweep", "--target", "999999", "--sample", "5"],
        ],
        ids=["attack-unknown-target", "attack-unknown-attacker",
             "attack-same-node", "sweep-unknown-target"],
    )
    def test_bad_asns_exit_2_with_one_line(self, topo_file, capsys, argv):
        assert main([*argv, "-i", str(topo_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_generate_below_the_scaled_limit_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "topo.txt"
        assert main(["generate", "--as-count", "150", "-o", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "generate error: as_count=150 is below the smallest scaled topology (160 ASes)"
        ]
        assert not path.exists()

    def test_generate_at_250_ases_writes_the_file(self, tmp_path, capsys):
        path = tmp_path / "topo.txt"
        assert main(["generate", "--as-count", "250", "-o", str(path)]) == 0
        assert capsys.readouterr().out.startswith("wrote 250 ASes")

    @pytest.mark.parametrize(
        "argv",
        [["summarize", "-i"], ["stream", "--attacks", "1", "--topology"]],
        ids=["summarize-input", "stream-topology"],
    )
    def test_bad_topology_file_exits_1_with_one_line(self, tmp_path, capsys, argv):
        path = tmp_path / "topo.txt"
        path.write_bytes(b"1|2|0\n3\xff|4|-1\n")
        assert main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"topology error: {path}: line 2: ASN '3\ufffd' is not a plain number"
        ]

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["summarize", "-i"], "topology"),
            (["stream", "--attacks", "1", "--topology"], "topology"),
            (["ingest", "--as-count", "300", "--rib"], "trace"),
            (["ingest", "--as-count", "300", "--updates"], "trace"),
            (["stream", "--as-count", "300", "-i"], "stream"),
        ],
        ids=["summarize-input", "stream-topology", "ingest-rib", "ingest-updates",
             "stream-input"],
    )
    def test_missing_input_file_exits_1_with_one_line(self, tmp_path, capsys, argv, kind):
        path = tmp_path / "missing"
        assert main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"{kind} error: {path}: No such file or directory"]

    @pytest.mark.parametrize(
        "option, kind", [("-i", "stream"), ("--rib", "trace")], ids=["input", "rib"]
    )
    def test_serve_refuses_a_missing_file_before_listening(self, tmp_path, option, kind):
        """The feed file is opened by a task after the daemon listens, so
        without a check up front the daemon serves forever with a dead
        feed; a subprocess with a timeout turns that hang into a failure."""
        path = tmp_path / "missing"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--as-count", "300",
             "--port", "0", option, str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"{kind} error: {path}: No such file or directory"
        ]

    def test_figure_writes_json_and_store(self, tmp_path, capsys):
        store_path = tmp_path / "store.sqlite"
        assert main([
            "figure", "tab1",
            "--as-count", "400",
            "--sample", "30",
            "--attacks", "50",
            "--output-dir", str(tmp_path),
            "--store", str(store_path),
        ]) == 0
        data = json.loads((tmp_path / "data" / "tab1.json").read_text())
        assert data["experiment_id"] == "tab1"
        from repro.experiments.store import ResultStore

        with ResultStore(store_path) as store:
            run = store.latest("tab1")
        # Every flag that changes the result is recorded, so runs that
        # differ only in --sample or --attacks stay apart in history().
        assert run.params == {"as_count": 400, "sample": 30, "attacks": 50, "seed": 2014}

    def test_figure_closes_the_store_when_an_experiment_raises(self, tmp_path, monkeypatch):
        from repro.experiments.store import ResultStore
        from repro.experiments.suite import ExperimentSuite

        closed = []
        close = ResultStore.close

        def tracking_close(store):
            closed.append(store)
            close(store)

        def failing_run(suite, name):
            raise RuntimeError(name)

        monkeypatch.setattr(ResultStore, "close", tracking_close)
        monkeypatch.setattr(ExperimentSuite, "run", failing_run)
        with pytest.raises(RuntimeError, match="tab1"):
            main([
                "figure", "tab1",
                "--as-count", "400",
                "--output-dir", str(tmp_path),
                "--store", str(tmp_path / "store.sqlite"),
            ])
        assert len(closed) == 1

    def test_report(self, tmp_path, capsys):
        output = tmp_path / "EXPERIMENTS.md"
        assert main([
            "report",
            "--as-count", "500",
            "--sample", "40",
            "--attacks", "60",
            "--output", str(output),
            "--output-dir", str(tmp_path / "results"),
        ]) == 0
        text = output.read_text()
        assert "# EXPERIMENTS" in text
        assert "FIG7" in text and "NZ_REHOMING" in text

    def test_attack_validated(self, topo_file, capsys):
        assert main(["attack", "--target", "300", "--attacker", "30",
                     "--validate", "-i", str(topo_file)]) == 0
        assert "polluted ASes:" in capsys.readouterr().out

    def test_validate(self, capsys):
        assert main(["validate", "--cases", "15", "--max-size", "18",
                     "--as-count", "300", "--attacks", "6"]) == 0
        output = capsys.readouterr().out
        assert "differential oracle: OK" in output
        assert "invariant suite: OK" in output
        assert "sweep determinism + cache coherence: OK" in output
        assert "validation passed" in output

    def test_plan(self, capsys):
        # Regions are generator metadata (the CAIDA format cannot carry
        # them), so plan against an in-process generated topology.
        assert main(["plan", "--region", "R00", "--as-count", "400"]) == 0
        assert "Self-interest action plan" in capsys.readouterr().out

    def test_stream_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "JSONL" in output and "--batch-window" in output

    def test_stream_compile_only_writes_readable_jsonl(self, tmp_path, capsys):
        from repro.stream import Announce, RoaPublish, read_events

        path = tmp_path / "campaign.jsonl"
        assert main(["stream", "--as-count", "400", "--attacks", "2",
                     "--publish-roas", "--compile-only", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        events = read_events(path)
        assert any(isinstance(event, Announce) for event in events)
        assert any(isinstance(event, RoaPublish) for event in events)

    @pytest.mark.parametrize(
        "bad_line, reason",
        [
            (b'{"kind": "announce", "bogus": 1}', "missing/invalid timestamp"),
            (b'{"kind":"announce","at":\xff}', "can't decode byte 0xff"),
        ],
        ids=["malformed", "not-utf8"],
    )
    def test_stream_compile_only_bad_line_exits_1_with_one_line(
        self, tmp_path, capsys, bad_line, reason
    ):
        """The strict re-emit path names the file and line of the first
        bad line (blank lines count) instead of ending in a traceback."""
        feed = tmp_path / "feed.jsonl"
        assert main(["stream", "--as-count", "300", "--attacks", "1",
                     "--compile-only", str(feed)]) == 0
        good = feed.read_bytes()
        feed.write_bytes(good + b"\n" + bad_line + b"\n")
        number = good.count(b"\n") + 2
        capsys.readouterr()
        out = tmp_path / "out.jsonl"
        assert main(["stream", "--as-count", "300", "-i", str(feed),
                     "--compile-only", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"stream error: {feed}:{number}: ")
        assert reason in line
        assert not out.exists()

    def test_stream_replay_emits_json_report(self, tmp_path, capsys):
        stream_path = tmp_path / "campaign.jsonl"
        assert main(["stream", "--as-count", "400", "--attacks", "2",
                     "--publish-roas", "--compile-only", str(stream_path)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["stream", "--as-count", "400", "-i", str(stream_path),
                     "--probes", "top-degree", "--batch-window", "0.5",
                     "--report", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["events"]["submitted"] == 6  # 2 ROAs + 4 announces
        assert payload["events"]["malformed"] == 0
        assert "alarms" in payload["monitor"]
        assert payload["prefixes"], "expected per-prefix final state"

    def test_stream_replay_tolerates_malformed_input_lines(self, tmp_path, capsys):
        stream_path = tmp_path / "campaign.jsonl"
        assert main(["stream", "--as-count", "400", "--attacks", "2",
                     "--publish-roas", "--compile-only", str(stream_path)]) == 0
        lines = stream_path.read_text().splitlines()
        lines.insert(1, "{this is not json")
        lines.insert(3, '{"kind":"teleport","at":1.0}')
        stream_path.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["stream", "--as-count", "400", "-i", str(stream_path),
                     "--report", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["events"]["malformed"] == 2
        assert payload["events"]["applied"] == 6

    def test_stream_replay_survives_undecodable_and_overlong_lines(
        self, tmp_path, capsys
    ):
        stream_path = tmp_path / "campaign.jsonl"
        assert main(["stream", "--as-count", "400", "--attacks", "2",
                     "--publish-roas", "--compile-only", str(stream_path)]) == 0
        data = stream_path.read_bytes()
        # One line with a byte that is not UTF-8, then 2 MiB with no newline.
        stream_path.write_bytes(
            data + b'{"kind":"announce","at":\xff}\n' + b"x" * (2 << 20)
        )
        report_path = tmp_path / "report.json"
        assert main(["stream", "--as-count", "400", "-i", str(stream_path),
                     "--report", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["events"]["malformed"] == 2
        assert payload["events"]["applied"] == 6

    def test_stream_array_backend_report_is_json_and_matches_reference(
        self, topo_file, tmp_path, capsys
    ):
        """Regression: a type-U replay and a route leak read their claimed
        path off ``RouteState.path_from``; on the array backend's
        numpy-backed states those hops must still be plain ints, or the
        JSON report raises on an ``np.int32``."""
        from repro.attacks.lab import HijackLab
        from repro.attacks.scenario import HijackKind, PathKind
        from repro.stream import write_events
        from repro.stream.events import compile_scenario
        from repro.topology.caida import load_caida_mmap

        lab = HijackLab(load_caida_mmap(topo_file), seed=0)
        scenarios = [
            lab.build_scenario(300, 30, path_kind=PathKind.TYPE_U),
            lab.build_scenario(200, 45, kind=HijackKind.ROUTE_LEAK),
        ]
        events = [
            event
            for index, scenario in enumerate(scenarios)
            for event in compile_scenario(scenario, start=4.0 * index)
        ]
        stream_path = write_events(tmp_path / "replays.jsonl", events)
        payloads = {}
        for backend in ("reference", "array"):
            report_path = tmp_path / f"{backend}.json"
            assert main(["--backend", backend, "--seed", "0", "stream",
                         "--topology", str(topo_file), "-i", str(stream_path),
                         "--probes", "top-degree",
                         "--report", str(report_path)]) == 0
            payloads[backend] = json.loads(report_path.read_text())
        assert payloads["array"] == payloads["reference"]
        # Both replays resolved a learned path (a fizzle would be a noop).
        assert payloads["array"]["events"]["applied"] == len(events)
        assert payloads["array"]["events"]["noop"] == 0

    def test_stream_fail_on_hijack_exit_code(self, tmp_path, capsys):
        # A hijack campaign with ROAs published: CONFIRMED verdicts fire.
        assert main(["stream", "--as-count", "400", "--attacks", "2",
                     "--publish-roas", "--fail-on-hijack",
                     "--report", str(tmp_path / "r.json")]) == 1
        assert "fail-on-hijack" in capsys.readouterr().err

    def test_stream_fail_on_hijack_passes_clean_stream(self, tmp_path, capsys):
        # Only the legitimate announcements: nothing to page on.
        from repro.stream import read_events, write_events
        from repro.stream.events import Announce, RoaPublish

        stream_path = tmp_path / "campaign.jsonl"
        assert main(["stream", "--as-count", "400", "--attacks", "2",
                     "--publish-roas", "--compile-only", str(stream_path)]) == 0
        events = read_events(stream_path)
        roas = [e for e in events if isinstance(e, RoaPublish)]
        legit = {(roa.prefix, roa.origin_asn) for roa in roas}
        clean = roas + [
            e for e in events
            if isinstance(e, Announce) and (e.prefix, e.origin_asn) in legit
        ]
        write_events(stream_path, clean)
        assert main(["stream", "--as-count", "400", "-i", str(stream_path),
                     "--fail-on-hijack",
                     "--report", str(tmp_path / "r.json")]) == 0

    def test_metrics_flag_writes_snapshot(self, topo_file, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["--metrics", str(metrics_path),
                     "attack", "--target", "300", "--attacker", "30",
                     "-i", str(topo_file)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["engine.convergences"] >= 1
        assert snapshot["counters"]["engine.routes_installed"] > 0

    def test_metrics_snapshot_is_written_when_a_run_stops_on_bad_input(
        self, tmp_path, capsys
    ):
        """A strict ingest that stops on a malformed line still leaves its
        snapshot; the note goes to stderr, so a failed run's stdout stays
        empty."""
        updates = tmp_path / "bad.jsonl"
        updates.write_text("{this is not json\n")
        metrics_path = tmp_path / "m.json"
        assert main(["--metrics", str(metrics_path), "ingest", "--as-count", "300",
                     "--updates", str(updates), "--strict"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"trace error: {updates}:1: invalid JSON: Expecting property name "
            "enclosed in double quotes: line 1 column 2 (char 1)",
            f"wrote metrics snapshot to {metrics_path}",
        ]
        assert "counters" in json.loads(metrics_path.read_text())
