"""The process under test: runs one job the harness wrote, reports, exits.

The harness starts it with the repo root and ``src`` on ``PYTHONPATH``.
A job is a JSON file naming generated input files and the sizes of the
work; it carries no seed and no workload name. The worker sets the
program up, prints ``ready`` (the harness times set-up from spawn to
that line), runs the measured window and writes a JSON result. With
``trace`` set it first installs the timing wrappers of ``tracing`` and
hands the program a live ``repro.obs`` sink, and the result carries the
per-layer aggregates and counters.

A window ends after ``seconds`` or, when ``max_ops`` is set, after
exactly that much work: the traced run repeats the untraced run's work
so the two can be compared output for output.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from itertools import islice
from pathlib import Path

from benchmarks.e2e import adapters, procfs, tracing

class Clock:
    """Wall and CPU seconds of this process since construction."""

    def __init__(self) -> None:
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    def read(self) -> tuple[float, float]:
        return time.perf_counter() - self.wall0, time.process_time() - self.cpu0


# -- sweep ------------------------------------------------------------------


def sweep_setup(job: dict, metrics):
    lab = adapters.sweep_lab(adapters.load_topology(job["topology"]), metrics)
    # Warm the kernel's code paths on a target the window does not sweep
    # (the last cycle's ladder target, which only a ladder may reach).
    adapters.sweep_target(lab, job["cycles"][-1][-1], job["sample"], seed=-1)
    return lab, adapters.ladder_of(lab)


def sweep_window(job: dict, state, metrics) -> dict:
    """Whole cycles: one sweep per target of the cycle's set plus one ladder.

    Cycles rotate through the job's target sets and draw new attackers
    every time round, so a revisited target hits the baseline cache.
    """
    lab, ladder = state
    sample = job["sample"]
    attacks = failed = cycles = 0
    digest = hashlib.sha256()
    samples: list[tuple[int, int, frozenset[int]]] = []
    errors: list[str] = []
    clock = Clock()
    while True:
        *targets, ladder_target = job["cycles"][cycles % len(job["cycles"])]
        calls = [
            (adapters.sweep_target, (lab, target, sample, cycles)) for target in targets
        ]
        calls.append((adapters.sweep_ladder, (lab, ladder_target, ladder, sample, cycles)))
        for call, args in calls:
            try:
                result = call(*args)
            except Exception as error:  # a failed sweep is a counted failure
                failed += sample
                errors.append(repr(error))
                continue
            rungs = result if isinstance(result, list) else [result]
            attacks += sum(len(rung) for rung in rungs)
            if cycles == 0:
                # Size and sum of each polluted set: cheap enough to sit
                # inside the window; exact sets are checked on a sample.
                items = [item for rung in rungs for item in adapters.pollution_items(rung)]
                for target, attacker, polluted in items:
                    digest.update(
                        b"%d:%d:%d:%d;" % (target, attacker, len(polluted), sum(polluted))
                    )
                if call is adapters.sweep_target:
                    samples.append(items[0])
        cycles += 1
        wall, cpu = clock.read()
        if cycles >= job["max_ops"] if job["max_ops"] else wall >= job["seconds"]:
            break
    lookups, hit_ratio = adapters.cache_stats(lab)
    return {
        "ops": attacks, "units": cycles, "attempted": attacks + failed,
        "failed": failed, "wall_s": wall, "cpu_s": cpu, "window_wall_s": wall,
        "digest": digest.hexdigest(), "errors": errors[:8],
        "samples": samples,
        "layer": {
            "parallel.cache.lookups": lookups,
            "parallel.cache.hit_ratio": hit_ratio,
        },
    }


def sweep_check(state, result: dict) -> None:
    """Re-run one attack per target on the scalar reference kernel."""
    lab, _ladder = state
    samples = result.pop("samples")
    mismatches = sum(
        adapters.reference_pollution(lab, target, attacker) != polluted
        for target, attacker, polluted in samples
    )
    result["failed"] += mismatches
    result["checks"] = {
        "reference_attacks": len(samples), "reference_mismatches": mismatches,
    }


# -- ingest -----------------------------------------------------------------


class BoundedFeed:
    """A ``TracePipeline`` whose event stream the harness can end and time.

    It marks the hand-over of the first update event (the boundary
    between RIB wave and update phase) and ends the stream at the
    window's limit; everything else is the wrapped pipeline's.
    """

    def __init__(self, pipeline, wave: int, job: dict, clock: Clock) -> None:
        self.pipeline = pipeline
        self.wave = wave
        self.seconds = job["seconds"]
        self.max_ops = job["max_ops"]
        self.clock = clock
        self.updates_at = (0.0, 0.0)
        self.updates = 0

    def baseline(self):
        return self.pipeline.baseline()

    def stats(self):
        return self.pipeline.stats()

    def _ended(self, done: int) -> bool:
        if self.max_ops:
            return done >= self.max_ops
        # Reading the clock every 64th event keeps the check off the profile.
        return bool(done) and not done & 63 and self.clock.read()[0] >= self.seconds

    def events(self):
        stream = self.pipeline.events()
        yield from islice(stream, self.wave)
        self.updates_at = self.clock.read()
        # The limit is tested before an event is pulled, so every record
        # the reader has counted was also handed to the replayer.
        while not self._ended(self.updates):
            event = next(stream, None)
            if event is None:
                break
            yield event
            self.updates += 1


def ingest_setup(job: dict, metrics):
    graph = adapters.load_topology(job["topology"])
    lab = adapters.default_lab(graph, metrics)
    pipeline = adapters.open_pipeline(job["rib"], job["updates"], metrics)
    wave = adapters.rib_wave_size(pipeline)
    return lab, pipeline, wave, adapters.ingest_probes(graph)


def ingest_window(job: dict, state, metrics) -> dict:
    """One ``run_ingest`` over the RIB wave and as many updates as fit."""
    lab, pipeline, wave, probes = state
    clock = Clock()
    feed = BoundedFeed(pipeline, wave, job, clock)
    payload = adapters.ingest(lab, feed, probes, job["batch_window"], metrics)
    wall, cpu = clock.read()
    rib_wall, rib_cpu = feed.updates_at
    replay = payload["replay"]
    events = replay["events"]
    errors = len(replay["errors"]) + replay["errors_dropped"]
    update_stats = payload["ingest"]["updates"]
    layer = {
        "ingest.records.malformed": update_stats["malformed"],
        "ingest.compiler.events": update_stats["events"],
        "stream.replay.noop_ratio": events["noop"] / max(1, events["submitted"]),
        "stream.replay.coalesced_ratio": events["coalesced"] / max(1, events["submitted"]),
    }
    return {
        "ops": feed.updates, "units": feed.updates,
        "attempted": wave + feed.updates, "failed": errors,
        "wall_s": wall - rib_wall, "cpu_s": cpu - rib_cpu, "window_wall_s": wall,
        "rib_prefixes": wave, "rib_wall_s": rib_wall,
        "digest": adapters.digest(payload), "errors": replay["errors"][:8],
        "events": events, "update_stats": update_stats,
        "prefixes": replay["prefixes"],
        "alarms": replay["monitor"]["alarm_count"],
        "layer": layer,
    }


# -- service (the daemon's synchronous core, replayed in-process) -----------


def service_setup(job: dict, metrics):
    lab = adapters.default_lab(adapters.load_topology(job["topology"]), metrics)
    service = adapters.monitor_service(lab, metrics)
    for tenant, prefix, origin, auto_mitigate in json.loads(
        Path(job["tenants"]).read_text(encoding="utf-8")
    ):
        adapters.register_tenant(service, tenant, prefix, origin, auto_mitigate)
    return service


def service_window(job: dict, service, metrics) -> dict:
    """Feed the first ``max_ops`` event lines, polling after each."""
    with open(job["lines"], encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for _, line in zip(range(job["max_ops"]), handle)]
    clock = Clock()
    for line in lines:
        adapters.ingest_line_and_poll(service, line)
    wall, cpu = clock.read()
    keys = adapters.verdict_keys(service)
    return {
        "ops": len(lines), "units": len(lines), "attempted": len(lines), "failed": 0,
        "wall_s": wall, "cpu_s": cpu, "window_wall_s": wall,
        "digest": adapters.digest(keys),
        "errors": [], "verdict_keys": keys,
        "layer": {"service.daemon.mitigations": adapters.mitigation_count(service)},
    }


# kind -> (set-up, measured window, check run after the window or None)
KINDS = {
    "sweep": (sweep_setup, sweep_window, sweep_check),
    "ingest": (ingest_setup, ingest_window, None),
    "service": (service_setup, service_window, None),
}


def _obs_layer_metrics(counters: dict[str, float], calls: dict[str, int]) -> dict[str, float]:
    """Ratios built from the program's own exactly repeating counters."""
    convergences = counters.get("engine.convergences", 0)
    withdraws = calls.get("stream.incremental.withdraw", 0)
    observes = calls.get("stream.monitor.observe", 0)
    return {
        "bgp.routes_installed_per_convergence": (
            counters.get("engine.routes_installed", 0) / convergences if convergences else 0.0
        ),
        "stream.incremental.replay_ratio": (
            counters.get("stream.ledger.replays", 0) / withdraws if withdraws else 0.0
        ),
        "stream.monitor.alarm_ratio": (
            counters.get("stream.monitor.alarms", 0) / observes if observes else 0.0
        ),
    }


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    setup, window, check = KINDS[job["kind"]]
    recorder = metrics = None
    if job["trace"]:
        recorder = tracing.Recorder()
        tracing.install(recorder, adapters.TRACED)
        metrics = adapters.new_metrics()
    state = setup(job, metrics)
    print("ready", flush=True)
    if job["setup_only"]:
        return 0
    if recorder is None:
        result = window(job, state, metrics)
    else:
        setup_summary = recorder.take()
        recorder.begin(tracing.WINDOW)
        try:
            result = window(job, state, metrics)
        finally:
            recorder.end()
        summary = recorder.take()
        recorder.write(Path(job["trace"]))
        result["trace"] = {"setup": setup_summary, "window": summary}
        result["layer"].update(
            _obs_layer_metrics(adapters.obs_counters(metrics), summary["calls"])
        )
    if check is not None:
        check(state, result)
    result["peak_rss_mb"] = procfs.peak_rss_mb()
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
