"""The four workloads: generate inputs, run the program, check, measure.

Each workload runs the program under test in a fresh subprocess that
receives only generated files. ``Harness.run`` makes one untraced run
and returns the end-to-end metrics; with ``trace`` it then repeats the
same amount of work with the timing wrappers on and adds the per-layer
table. Set-up (input generation plus process start to ``ready``) is
repeated ``SETUP_REPEATS`` times per run and its median reported.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable

from benchmarks.e2e import adapters, generators, loadgen, procfs, spec, stats, tracing

SETUP_REPEATS = 3
CHECKED_LEDGERS = 16
WORKER = Path(__file__).with_name("worker.py")

# Input sizes. Per-second sizes are multiplied by the run length and leave
# the program two to three times its current speed before inputs run out
# (a run that drains its inputs early still reports a valid rate).
SIZES = {
    "sweep_scale": {
        "as_count": 42_697,
        "target_depths": (1, 1, 2, 2, 3, 3, 4, 5),
        "ladder_depth": 3,
        "sample": 16,
        "target_sets": 3,
    },
    "trace_replay": {
        "as_count": 4270, "rib_prefixes": 500, "updates_per_s": 4000,
        "batch_window": 0.0,
    },
    "trace_storm": {
        "as_count": 4270, "rib_prefixes": 200, "lines_per_s": 60_000,
        "flap_share": 0.005, "malformed": 12, "batch_window": 0.05,
    },
    "daemon_http": {
        "as_count": 4270, "tenants": 32, "scenarios_per_s": 340,
        "open_rate": 200, "trace_rates": (100, 200, 400),
    },
}


@dataclass
class RunResult:
    """What one run of one workload measured."""

    workload: str
    seed: int
    end_to_end: dict[str, float]
    samples: dict[str, int]  # sample count behind each end-to-end metric
    attempted: int
    failed: int
    correct: bool
    checks: dict[str, object]
    per_layer: dict[str, float] | None = None
    notes: list[str] = field(default_factory=list)


@dataclass
class DaemonRun:
    """What driving the daemon over HTTP produced."""

    inputs: generators.DaemonInputs
    setups: list[float]
    lines_sent: int
    steps: dict[int, list[loadgen.Sample]]  # open-loop rate -> samples
    closed: list[loadgen.Sample]
    cpu_s: float  # the daemon's, over the load phases
    served: list[list[str]]  # verdict keys from GET /verdicts
    peak_rss_mb: float


class CheckFailed(Exception):
    """The harness itself could not run (not a program failure)."""


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src"), str(root)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def _reap(proc: subprocess.Popen) -> None:
    """Wait until *proc* has ended."""
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class Harness:
    def __init__(self, root: Path, out_dir: Path, sizes: dict | None = None) -> None:
        self.root = root
        self.out_dir = out_dir
        self.sizes = sizes if sizes is not None else SIZES
        self.env = _child_env(root)
        self._jobs = 0

    # -- running children ----------------------------------------------------

    def _worker(self, workdir: Path, job: dict) -> tuple[float, dict | None]:
        """Run one worker job; returns (spawn-to-ready seconds, result)."""
        self._jobs += 1
        job_path = workdir / f"job{self._jobs}.json"
        job["result"] = str(workdir / f"result{self._jobs}.json")
        job_path.write_text(json.dumps(job), encoding="utf-8")
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(job_path)],
            stdout=subprocess.PIPE, env=self.env, cwd=self.root, text=True,
        )
        try:
            line = proc.stdout.readline()
        except BaseException:
            proc.kill()
            _reap(proc)
            raise
        ready_s = time.perf_counter() - started
        _reap(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise CheckFailed(f"worker failed on {job_path} (exit {proc.returncode})")
        if job["setup_only"]:
            return ready_s, None
        return ready_s, json.loads(Path(job["result"]).read_text(encoding="utf-8"))

    # -- entry point ---------------------------------------------------------

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> RunResult:
        workdir = self.out_dir / f"work-{os.getpid()}-{workload}"
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        try:
            runner = getattr(self, f"_run_{workload}")
            return runner(workdir, seed, seconds, trace)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _trace_path(self, workload: str) -> Path:
        return self.out_dir / f"trace-{workload}.jsonl"

    # -- in-process workloads --------------------------------------------------

    def _repeated_setup(
        self, workdir: Path, seed: int, trace: bool,
        make: Callable[[Path], object], start: Callable[[object, bool], tuple[float, object]],
    ):
        """Generate the inputs and start the program, several times over.

        ``start(inputs, last)`` starts the program on freshly generated
        inputs and returns the seconds that took plus a handle; only the
        last start is kept running, the others it must have ended itself.
        A traced run sets up once: its ``setup_s`` is not reported.
        Returns the last inputs and handle and every repeat's set-up time.
        """
        repeats = 1 if trace else SETUP_REPEATS
        setups: list[float] = []
        digests: set[str] = set()
        for repeat in range(repeats):
            inputs_dir = workdir / f"inputs{repeat}"
            inputs_dir.mkdir()
            began = time.perf_counter()
            inputs = make(inputs_dir)
            generate_s = time.perf_counter() - began
            digests.add(generators.files_digest(inputs.files))
            if len(digests) != 1:
                raise CheckFailed(f"seed {seed} generated differing inputs")
            last = repeat == repeats - 1
            start_s, handle = start(inputs, last)
            setups.append(generate_s + start_s)
            if not last:
                shutil.rmtree(inputs_dir)
        return inputs, handle, setups

    def _measure_worker(
        self, workload: str, workdir: Path, seed: int, trace: bool,
        make: Callable[[Path], object], job_of: Callable[[object], dict],
    ):
        """The untraced worker run, then optionally the traced one.

        Only the last set-up's worker goes on into the measured window.
        """
        jobs: list[dict] = []

        def start(inputs, last: bool):
            jobs.append(dict(job_of(inputs), setup_only=not last))
            return self._worker(workdir, jobs[-1])

        inputs, result, setups = self._repeated_setup(workdir, seed, trace, make, start)
        traced = None
        if trace:
            job = dict(jobs[-1], max_ops=result["units"], trace=str(self._trace_path(workload)))
            _ready, traced = self._worker(workdir, job)
        return inputs, result, traced, setups

    def _run_sweep_scale(self, workdir: Path, seed: int, seconds: float, trace: bool) -> RunResult:
        size = self.sizes["sweep_scale"]

        def make(directory: Path):
            return generators.make_sweep(
                directory, seed, size["as_count"], size["target_depths"],
                size["ladder_depth"], size["target_sets"],
            )

        def job_of(inputs) -> dict:
            return {
                "kind": "sweep", "topology": str(inputs.topology),
                "cycles": inputs.cycles,
                "sample": size["sample"], "seconds": seconds, "max_ops": 0, "trace": None,
            }

        _inputs, result, traced, setups = self._measure_worker(
            "sweep_scale", workdir, seed, trace, make, job_of
        )
        checks = dict(result["checks"], outcome_digest=result["digest"], cycles=result["units"])
        return self._result("sweep_scale", seed, result, traced, setups, checks)

    def _run_trace_replay(self, workdir: Path, seed: int, seconds: float, trace: bool) -> RunResult:
        size = self.sizes["trace_replay"]

        def make(directory: Path):
            return generators.make_replay(
                directory, seed, size["as_count"], size["rib_prefixes"],
                int(size["updates_per_s"] * seconds),
            )

        inputs, result, traced, setups = self._measure_worker(
            "trace_replay", workdir, seed, trace, make,
            lambda made: self._ingest_job(made, size, seconds),
        )
        # Sampled ledgers must equal a cold convergence of the origin chain
        # the generator knows each prefix ends with.
        chains = inputs.chains_after(result["units"])
        lab = adapters.default_lab(inputs.graph, None)
        picked = generators.sample_indices(seed, len(chains), CHECKED_LEDGERS)
        mismatched = [
            index for index in picked
            if adapters.cold_checksum(lab, chains[index])
            != result["prefixes"][generators.prefix_of(index)]["checksum"]
        ]
        checks = {
            "report_digest": result["digest"],
            "ledgers_checked": len(picked), "ledger_mismatches": len(mismatched),
            "alarms": result["alarms"],
        }
        extra = {
            "rib_prefixes_per_s": (
                result["rib_prefixes"] / result["rib_wall_s"], result["rib_prefixes"]
            ),
        }
        return self._result(
            "trace_replay", seed, result, traced, setups, checks, extra=extra,
            mismatches=len(mismatched), layer=self._ingest_layer(inputs, traced),
        )

    def _run_trace_storm(self, workdir: Path, seed: int, seconds: float, trace: bool) -> RunResult:
        size = self.sizes["trace_storm"]

        def make(directory: Path):
            return generators.make_storm(
                directory, seed, size["as_count"], size["rib_prefixes"],
                int(size["lines_per_s"] * seconds), size["flap_share"], size["malformed"],
            )

        inputs, result, traced, setups = self._measure_worker(
            "trace_storm", workdir, seed, trace, make,
            lambda made: self._ingest_job(made, size, seconds),
        )
        # What the reader and replayer counted must be what was written.
        read = inputs.kinds[: result["update_stats"]["lines"]]
        written_malformed = read.count(generators.MALFORMED)
        checks = {
            "lines_read": len(read),
            "records_plus_malformed": (
                result["update_stats"]["records"] + result["update_stats"]["malformed"]
            ),
            "malformed_written": written_malformed,
            "malformed_counted": result["update_stats"]["malformed"],
            "duplicates_written": read.count(generators.DUPLICATE),
            "noops_counted": result["events"]["noop"],
        }
        mismatches = sum((
            checks["records_plus_malformed"] != checks["lines_read"],
            checks["malformed_written"] != checks["malformed_counted"],
            checks["duplicates_written"] != checks["noops_counted"],
        ))
        return self._result(
            "trace_storm", seed, result, traced, setups, checks, mismatches=mismatches,
            layer=self._ingest_layer(inputs, traced),
        )

    @staticmethod
    def _ingest_job(inputs, size: dict, seconds: float) -> dict:
        return {
            "kind": "ingest", "topology": str(inputs.topology), "rib": str(inputs.rib),
            "updates": str(inputs.updates), "batch_window": size["batch_window"],
            "seconds": seconds, "max_ops": 0, "trace": None,
        }

    @staticmethod
    def _ingest_layer(inputs, traced: dict | None) -> dict[str, float]:
        if traced is None:
            return {}
        with inputs.updates.open("rb") as handle:
            consumed = sum(len(line) for line in islice(handle, traced["update_stats"]["lines"]))
        return {"ingest.records.bytes": inputs.rib.stat().st_size + consumed}

    # -- daemon_http -----------------------------------------------------------

    def _boot_daemon(self, workdir: Path, inputs) -> tuple[subprocess.Popen, loadgen.Client]:
        """Start ``repro serve``, register the tenants, warm the read path."""
        log = (workdir / "daemon.log").open("ab")
        try:
            proc = subprocess.Popen(
                adapters.daemon_command(str(inputs.topology)),
                stdout=subprocess.PIPE, stderr=log, env=self.env, cwd=self.root, text=True,
            )
        finally:
            log.close()
        try:
            match = re.search(r"listening on http://([\d.]+):(\d+)", proc.stdout.readline())
            if match is None:
                raise CheckFailed("daemon did not report a listening port")
            client = loadgen.Client(match.group(1), int(match.group(2)))
            for tenant, prefix, origin, auto_mitigate in inputs.tenants:
                body = json.dumps(
                    {"prefix": prefix, "origin": origin, "auto_mitigate": auto_mitigate}
                ).encode("utf-8")
                reply = client.send(
                    loadgen.Request("register", "POST", f"/tenants/{tenant}/prefixes", body)
                )
                if reply.status != 200:
                    raise CheckFailed(f"registering {tenant} answered {reply.status}")
            for _ in range(5):
                client.send(loadgen.Request("get_health", "GET", "/health"))
        except BaseException:
            proc.kill()
            _reap(proc)
            raise
        return proc, client

    @staticmethod
    def _stop_daemon(proc: subprocess.Popen, client: loadgen.Client) -> None:
        if client.send(loadgen.Request("shutdown", "POST", "/shutdown")).status != 200:
            proc.kill()
        _reap(proc)

    def _drive_daemon(self, workdir: Path, seed: int, seconds: float, trace: bool) -> DaemonRun:
        """Boot the daemon (repeatedly, for set-up), load it, read it, stop it."""
        size = self.sizes["daemon_http"]

        def make(directory: Path):
            return generators.make_daemon(
                directory, seed, size["as_count"], size["tenants"],
                int(size["scenarios_per_s"] * seconds),
            )

        def start(inputs, last: bool):
            began = time.perf_counter()
            proc, client = self._boot_daemon(workdir, inputs)
            boot_s = time.perf_counter() - began
            if not last:
                self._stop_daemon(proc, client)
            return boot_s, (proc, client)

        inputs, (proc, client), setups = self._repeated_setup(workdir, seed, trace, make, start)
        sent_lines: list[str] = []
        requests = loadgen.request_mix(
            inputs.lines, [tenant for tenant, *_ in inputs.tenants], sent_lines
        )
        try:
            cpu_before = procfs.cpu_seconds(proc.pid)
            if trace:
                share = seconds / (len(size["trace_rates"]) + 1)
                steps = {
                    rate: loadgen.open_loop(requests, client.send, rate, share)
                    for rate in size["trace_rates"]
                }
            else:
                share = seconds * 0.4
                rate = size["open_rate"]
                steps = {rate: loadgen.open_loop(requests, client.send, rate, seconds - share)}
            closed = loadgen.closed_loop(requests, client.send, share)
            cpu_s = procfs.cpu_seconds(proc.pid) - cpu_before
            reply = client.send(loadgen.Request("get_all", "GET", "/verdicts"))
            if reply.status != 200:
                raise CheckFailed(f"GET /verdicts answered {reply.status}")
            served = adapters.verdict_keys_of(json.loads(reply.body)["verdicts"])
            peak_rss_mb = procfs.peak_rss_mb(proc.pid)
        except BaseException:
            proc.kill()
            _reap(proc)
            raise
        self._stop_daemon(proc, client)
        return DaemonRun(inputs, setups, len(sent_lines), steps, closed, cpu_s, served, peak_rss_mb)

    def _run_daemon_http(self, workdir: Path, seed: int, seconds: float, trace: bool) -> RunResult:
        size = self.sizes["daemon_http"]
        http = self._drive_daemon(workdir, seed, seconds, trace)
        inputs, steps, closed = http.inputs, http.steps, http.closed

        # The same lines through the synchronous core must raise the same
        # (tenant, prefix, verdict) set; traced, that replay is also where
        # the service layers' self time comes from.
        job = {
            "kind": "service", "topology": str(inputs.topology),
            "tenants": str(inputs.files[-1]), "lines": str(inputs.lines_path),
            "seconds": 0, "max_ops": http.lines_sent, "trace": None, "setup_only": False,
        }
        _ready, offline = self._worker(workdir, job)
        traced = None
        if trace:
            job = dict(job, trace=str(self._trace_path("daemon_http")))
            _ready, traced = self._worker(workdir, job)

        open_samples = [sample for step in steps.values() for sample in step]
        every = open_samples + closed
        posts_open = [s for s in steps[size["open_rate"]] if s.kind == "post_events"]
        posts_closed = [s for s in closed if s.kind == "post_events" and not s.failed]
        latencies = [sample.latency * 1000.0 for sample in posts_open]
        failed_requests = sum(sample.failed for sample in every)
        deadline_misses = sum(sample.slow for sample in every)
        verdicts_equal = http.served == offline["verdict_keys"]
        closed_wall = closed[-1].done - closed[0].sent if closed else 0.0
        checks = {
            "verdict_keys": len(http.served), "verdicts_equal_offline": verdicts_equal,
            "requests": len(every), "failed_requests": failed_requests,
            "deadline_misses": deadline_misses,
            "lines_sent": http.lines_sent,
        }
        failed = failed_requests + (0 if verdicts_equal else 1)
        values = {
            "setup_s": statistics.median(http.setups),
            "events_per_s": len(posts_closed) / closed_wall if closed_wall else 0.0,
            "verdict_latency_p50_ms": stats.percentile(latencies, 50),
            "verdict_latency_p95_ms": stats.percentile_or_zero(latencies, 95),
            "cpu_s_per_kop": http.cpu_s / len(every) * 1000.0,
            "peak_rss_mb": http.peak_rss_mb,
            "failed_frac": failed / len(every),
        }
        samples = {
            "setup_s": len(http.setups), "events_per_s": len(posts_closed),
            "verdict_latency_p50_ms": len(latencies),
            "verdict_latency_p95_ms": len(latencies),
            "cpu_s_per_kop": len(every), "peak_rss_mb": 1, "failed_frac": len(every),
        }
        run = RunResult(
            "daemon_http", seed, values, samples, len(every), failed,
            failed == 0, checks,
        )
        if deadline_misses:
            # Slowness is what the latency metrics measure; only an
            # unanswered or wrongly answered request is a failed one.
            run.notes.append(
                f"{deadline_misses} answers came over {loadgen.SLOW_AFTER_S * 1000:.0f} ms "
                "after they were due"
            )
        if traced is not None:
            checks["traced_digest_equal"] = traced["digest"] == offline["digest"]
            run.correct = run.correct and checks["traced_digest_equal"]
            run.per_layer = self._layer_table(traced, offline)
            run.per_layer.update(
                _api_layer(steps, closed, offline["wall_s"] / max(1, offline["ops"]), run.notes)
            )
        return run

    # -- assembling results ----------------------------------------------------

    def _result(
        self, workload: str, seed: int, result: dict, traced: dict | None,
        setups: list[float], checks: dict, *,
        extra: dict | None = None, mismatches: int = 0, layer: dict | None = None,
    ) -> RunResult:
        """One worker workload's RunResult; a traced run must repeat the digest."""
        if traced is not None:
            checks["traced_digest_equal"] = traced["digest"] == result["digest"]
            mismatches += not checks["traced_digest_equal"]
        failed = result["failed"] + mismatches
        attempted = max(1, result["attempted"])
        values = {
            "setup_s": statistics.median(setups),
            spec.HEADLINE_RATE[workload]: result["ops"] / result["wall_s"],
            "cpu_s_per_kop": result["cpu_s"] / max(1, result["ops"]) * 1000.0,
            "peak_rss_mb": result["peak_rss_mb"],
            "failed_frac": failed / attempted,
        }
        samples = {
            "setup_s": len(setups), spec.HEADLINE_RATE[workload]: result["ops"],
            "cpu_s_per_kop": result["ops"], "peak_rss_mb": 1, "failed_frac": attempted,
        }
        for name, (value, count) in (extra or {}).items():
            values[name] = value
            samples[name] = count
        run = RunResult(workload, seed, values, samples, attempted, failed, failed == 0, checks)
        if result["errors"]:
            run.notes.append(f"program errors: {result['errors']}")
        if traced is not None:
            run.per_layer = self._layer_table(traced, result)
            run.per_layer.update(layer or {})
        return run

    @staticmethod
    def _layer_table(traced: dict, untraced: dict) -> dict[str, float]:
        """Every per-layer metric, 0 where the workload does not reach a layer."""
        table = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
        window, setup = traced["trace"]["window"], traced["trace"]["setup"]
        for span, calls in window["calls"].items():
            if f"{span}.calls" in table:
                table[f"{span}.calls"] = calls
        for span, seconds in window["self_s"].items():
            if f"{span}.self_s" in table:
                table[f"{span}.self_s"] = seconds
        for name, value in window["counts"].items():
            table[name] = value
        # Layers that run before the window opens are read from set-up.
        table["topology.load_s"] = setup["self_s"].get("topology.load", 0.0)
        table["topology.view_s"] = setup["self_s"].get("topology.view", 0.0)
        table["ingest.compiler.compile_rib.self_s"] = setup["self_s"].get(
            "ingest.compiler.compile_rib", 0.0
        )
        table.update(traced["layer"])
        table["trace.coverage_frac"] = tracing.coverage(window, tracing.WINDOW)
        table["trace.overhead_frac"] = traced["window_wall_s"] / untraced["window_wall_s"] - 1.0
        return table


def _api_layer(
    steps: dict[int, list[loadgen.Sample]], closed: list[loadgen.Sample],
    core_s_per_line: float, notes: list[str],
) -> dict[str, float]:
    """Client-side ``service.api.*`` and ``loadgen.*`` metrics, in ms."""
    opened = [sample for step in steps.values() for sample in step]
    every = opened + closed
    posts = [(s.done - s.sent) * 1000.0 for s in every if s.kind == "post_events"]
    reads = [s for s in every if s.kind == "get_verdicts"]
    late = [sample.late * 1000.0 for sample in opened]
    table = {
        "service.api.post_events.count": len(posts),
        "service.api.post_events.p50_ms": stats.percentile(posts, 50),
        "service.api.post_events.p95_ms": stats.percentile_or_zero(posts, 95),
        "service.api.post_events.p99_ms": stats.percentile_or_zero(posts, 99),
        "service.api.get_verdicts.p50_ms": stats.percentile(
            [(s.done - s.sent) * 1000.0 for s in reads], 50
        ),
        "service.api.get_verdicts.bytes_p50": stats.percentile([s.size for s in reads], 50),
        "service.api.connect_p50_ms": stats.percentile(
            [s.connect_s * 1000.0 for s in every], 50
        ),
        "loadgen.sent": len(every),
        "loadgen.late_p95_ms": stats.percentile_or_zero(late, 95),
    }
    # Mean against mean: the core's per-line time is a mean, and a median
    # minus a mean of a skewed distribution can come out negative.
    table["service.api.shell_ms_per_req"] = statistics.fmean(posts) - core_s_per_line * 1000.0
    for rate, step in steps.items():
        lags = [s.latency * 1000.0 for s in step if s.kind == "post_events"]
        step_late = stats.percentile([s.late * 1000.0 for s in step], 95)
        if step_late > 1.0:
            # The generator, not the daemon, set this step's timing.
            notes.append(f"step r{rate} invalid: generator late p95 {step_late:.3f} ms")
            continue
        table[f"service.api.latency_p95_ms.r{rate}"] = stats.percentile_or_zero(lags, 95)
        if rate == max(steps):
            edge = max(1, len(lags) // 20)
            table[f"service.api.backlog_growth.r{rate}"] = (
                statistics.fmean(lags[-edge:]) - statistics.fmean(lags[:edge])
            )
    return table
