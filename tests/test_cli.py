"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def topo_file(tmp_path):
    path = tmp_path / "topo.txt"
    assert main(["generate", "--as-count", "400", "-o", str(path)]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


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
                     "--subprefix", "-i", str(topo_file)]) == 0
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
