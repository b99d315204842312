"""Command-line interface: ``repro-bgp`` (or ``python -m repro``).

Subcommands cover the everyday workflows:

* ``generate``  — emit a calibrated synthetic topology in CAIDA format
* ``summarize`` — headline statistics of a topology file
* ``attack``    — simulate one attack (any grid cell: ``--kind``
  origin/subprefix/squat/route-leak × ``--path-kind`` type-0/1/n/u)
* ``sweep``     — vulnerability profile of one target (same grid knobs)
* ``figure``    — regenerate a paper figure/table (or ``all``)
* ``plan``      — run the Section VII self-interest playbook for a region
* ``calibrate`` — topology and model health against the paper's numbers
* ``validate``  — run the differential oracle + invariant suite
  (engine vs the slow reference simulator; see docs/testing.md)
* ``stream``    — replay a JSONL event stream (or compile one from
  random hijack scenarios) through the incremental-convergence engine
  and the online hijack monitor, emitting a JSON report
  (see docs/streaming.md)
* ``ingest``    — compile an MRT-like trace (RIB dump + update feed)
  into a stream and replay it through the online monitor — the
  real-data path (see docs/ingestion.md)
* ``serve``     — the always-on multi-tenant monitoring daemon
  (see docs/service.md)
* ``report``    — run every experiment and write EXPERIMENTS.md

The global ``--metrics <path>`` flag arms the :mod:`repro.obs` metrics
layer for any subcommand and writes its JSON snapshot (counters, gauges,
spans) to *path* when the command finishes. The global ``--backend``
flag selects the convergence kernel (``reference`` or ``array``) for
every lab- and suite-driving subcommand; both backends are
checksum-identical by contract, so it changes wall-clock only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Iterator

from repro.attacks.lab import HijackLab
from repro.core.selfinterest import SelfInterestPlanner
from repro.core.vulnerability import profile_target
from repro.detection.probes import bgpmon_like_probes, tier1_probes, top_degree_probes
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import ResultStore
from repro.experiments.suite import ExperimentSuite
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.topology.caida import CaidaFormatError, dump_caida, load_caida_mmap
from repro.topology.classify import summarize
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.util.tables import render_table

__all__ = ["main"]

_EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "tab1", "tab2", "tab3", "tab4", "tab5", "nz_rehoming", "nz_filter",
    "ext_subprefix", "attack_matrix", "service_latency",
)

# The monitor vantage-point sets ``stream``, ``ingest`` and ``serve`` offer.
_PROBE_SETS = {
    "tier1": tier1_probes,
    "bgpmon": bgpmon_like_probes,
    "top-degree": top_degree_probes,
}

_KIND_CHOICES = ("origin", "subprefix", "squat", "route-leak")
_PATH_KIND_CHOICES = ("type-0", "type-1", "type-n", "type-u")


def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An option group that subcommands take as an argparse parent."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _monitor_options(size: argparse.ArgumentParser, probes: str) -> argparse.ArgumentParser:
    """The monitor group, built per default: a child parser shares its
    parents' actions, so ``set_defaults`` on one would move all three."""
    monitor = _options(size)
    monitor.add_argument("--topology", type=Path, default=None,
                         help="CAIDA-format topology file, memory-mapped "
                              "(default: generate --as-count ASes)")
    monitor.add_argument("--probes", choices=tuple(_PROBE_SETS), default=probes,
                         help="monitor vantage-point set")
    monitor.add_argument("--batch-window", type=float, default=0.0,
                         help="coalescing window in virtual seconds")
    monitor.add_argument("--queue-limit", type=int, default=64,
                         help="pending events before a backpressure flush")
    return monitor


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bgp",
        description="BGP origin-hijack deployment-strategy simulator (ICDCS 2014 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=2014, help="experiment seed")
    parser.add_argument(
        "--backend", choices=("reference", "array"), default="reference",
        help="convergence kernel (checksum-identical; array is faster at scale)",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None, metavar="PATH",
        help="record runtime metrics (repro.obs) and write the JSON snapshot here",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    size = _options()
    size.add_argument("--as-count", type=int, default=4270,
                      help="ASes in a generated topology")
    validate = _options()
    validate.add_argument("--validate", action="store_true",
                          help="run the invariant checker on every convergence")
    topology = _options(size)
    topology.add_argument("-i", "--input", type=Path,
                          help="CAIDA as-rel file (default: generate --as-count ASes)")
    cell = _options(validate)
    cell.add_argument("--target", type=int, required=True)
    cell.add_argument("--kind", choices=_KIND_CHOICES, default="origin",
                      help="prefix axis of the attack grid")
    cell.add_argument("--path-kind", choices=_PATH_KIND_CHOICES, default="type-0",
                      help="path axis: forged first hop (type-1), deep forgery "
                           "(type-n), unmodified replay (type-u)")
    cell.add_argument("--forged-depth", type=int, default=1,
                      help="forged-path depth for --path-kind type-n")
    replay = _options(_monitor_options(size, "tier1"))
    replay.add_argument("--compile-only", type=Path, metavar="PATH",
                        help="write the compiled stream as JSONL and exit")
    replay.add_argument("--report", type=Path, default=None,
                        help="write the JSON report here (default: stdout)")
    replay.add_argument("--fail-on-hijack", action="store_true",
                        help="exit 1 if any CONFIRMED verdict (hijack / forged-path "
                             "/ route-leak) fires — for CI pipelines")
    suite = _options(size)
    suite.add_argument("--output-dir", type=Path, default=Path("results"))
    suite.add_argument("--sample", type=int, default=1200, help="attackers sampled per target")
    suite.add_argument("--attacks", type=int, default=8000, help="Fig. 7 workload size")

    generate = subparsers.add_parser("generate", parents=[size],
                                     help="generate a synthetic topology")
    generate.add_argument("--regions", type=int, default=None,
                          help="region count (default: scaled to the topology size)")
    generate.add_argument("-o", "--output", type=Path, required=True)

    subparsers.add_parser("summarize", parents=[topology], help="summarize a topology")

    attack = subparsers.add_parser("attack", parents=[topology, cell],
                                   help="simulate one attack of the grid")
    attack.add_argument("--attacker", type=int, required=True)

    sweep = subparsers.add_parser("sweep", parents=[topology, cell],
                                  help="vulnerability profile of a target")
    sweep.add_argument("--sample", type=int, default=None, help="attacker sample size")
    sweep.add_argument("--transit-only", action="store_true")

    figure = subparsers.add_parser("figure", parents=[suite, validate],
                                   help="regenerate a paper figure/table")
    figure.add_argument("name", choices=(*_EXPERIMENTS, "all"))
    figure.add_argument("--store", type=Path, help="also record into this sqlite store")

    plan = subparsers.add_parser("plan", parents=[topology],
                                 help="Section VII self-interest plan for a region")
    plan.add_argument("--region", required=True)
    plan.add_argument("--target", type=int, default=None)

    calibrate_cmd = subparsers.add_parser(
        "calibrate", parents=[topology],
        help="topology/model health report (paper references)",
    )
    calibrate_cmd.add_argument("--agreement-samples", type=int, default=10)
    calibrate_cmd.add_argument("--path-samples", type=int, default=60)

    validate_cmd = subparsers.add_parser(
        "validate",
        help="differential oracle + invariant health check of the routing core",
    )
    validate_cmd.add_argument("--cases", type=int, default=200,
                              help="random hijack cases for the differential oracle")
    validate_cmd.add_argument("--max-size", type=int, default=28,
                              help="largest random topology (ASes) per case")
    validate_cmd.add_argument("--as-count", type=int, default=900,
                              help="generated-topology size for the invariant sweep")
    validate_cmd.add_argument("--attacks", type=int, default=12,
                              help="random hijacks checked on the generated topology")

    stream_cmd = subparsers.add_parser(
        "stream", parents=[replay, validate],
        help="replay a JSONL event stream through the online hijack monitor",
    )
    stream_cmd.add_argument("-i", "--input", type=Path,
                            help="JSONL event stream (default: compile a campaign)")
    stream_cmd.add_argument("--attacks", type=int, default=5,
                            help="scenarios to compile when no input is given")
    stream_cmd.add_argument("--publish-roas", action="store_true",
                            help="publish every target's ROA at stream start")
    stream_cmd.add_argument("--dwell", type=float, default=None,
                            help="withdraw each bogus announcement after this long")

    ingest = subparsers.add_parser(
        "ingest", parents=[replay],
        help="compile an MRT-like trace (RIB dump + update feed) and replay "
             "it through the online hijack monitor (see docs/ingestion.md)",
    )
    ingest.add_argument("--rib", type=Path, default=None,
                        help="RIB-dump trace file (JSONL/TSV; .gz accepted)")
    ingest.add_argument("--updates", type=Path, default=None,
                        help="update-feed trace file (JSONL/TSV; .gz accepted)")
    ingest.add_argument("--strict", action="store_true",
                        help="raise on the first malformed record, duplicate "
                             "RIB entry or timestamp regression (with "
                             "file:line) instead of counting and continuing")
    ingest.add_argument("--seed-roas", action="store_true",
                        help="publish a ROA for every RIB-legal "
                             "(prefix, origin) before the announce wave")

    serve = subparsers.add_parser(
        "serve", parents=[_monitor_options(size, "top-degree")],
        help="run the always-on multi-tenant hijack-monitoring daemon "
             "(JSON API; see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8470,
                       help="listen port (0 = pick a free one)")
    # Accepted for callers that still pass 1; the service runs one replayer.
    serve.add_argument("--shards", type=int, choices=(1,), default=1,
                       help=argparse.SUPPRESS)
    serve.add_argument("-i", "--input", type=Path, default=None,
                       help="JSONL event feed to ingest at startup")
    serve.add_argument("--follow", action="store_true",
                       help="keep tailing --input for new lines")
    serve.add_argument("--rib", type=Path, default=None,
                       help="RIB-dump trace: register every legal "
                            "(prefix, origin) as tenant as<origin> with its "
                            "ROA before serving (see docs/ingestion.md)")

    report = subparsers.add_parser(
        "report", parents=[suite], help="run every experiment and write EXPERIMENTS.md"
    )
    report.add_argument("--output", type=Path, default=Path("EXPERIMENTS.md"))

    return parser


class _InputError(Exception):
    """An input file the command cannot use: :func:`main` prints the
    message as one stderr line and exits 1."""


def _check_readable(path: Path | None, kind: str) -> None:
    """Raise ``<kind> error: <path>: <reason>`` unless *path* (if given)
    opens for reading, so a bad path fails before any work starts."""
    if path is not None:
        try:
            path.open("rb").close()
        except OSError as error:
            raise _InputError(f"{kind} error: {path}: {error.strerror}") from error


@contextlib.contextmanager
def _trace_errors() -> Iterator[None]:
    """A trace file that fails to parse or to read becomes one
    ``trace error:`` line (exit 1) instead of a traceback."""
    from repro.ingest import TraceFormatError

    try:
        yield
    except TraceFormatError as error:
        raise _InputError(f"trace error: {error}") from error


def _graph(args: argparse.Namespace, path: Path | None):
    """The graph in the CAIDA file at *path* (a read or parse error names
    the file), else a generated ``--as-count`` graph."""
    if path is None:
        return generate_topology(GeneratorConfig.scaled(args.as_count, seed=args.seed))
    try:
        return load_caida_mmap(path)
    except (OSError, CaidaFormatError) as error:
        reason = getattr(error, "strerror", None) or error
        raise _InputError(f"topology error: {path}: {reason}") from error


def _metrics(args: argparse.Namespace) -> Metrics:
    """The run's metrics sink (armed by ``--metrics``, else a no-op)."""
    return getattr(args, "metrics_sink", NULL_METRICS)


def _lab(args: argparse.Namespace, graph, *, validate: bool = False) -> HijackLab:
    """The lab every lab-driving subcommand runs, on the global seed and backend."""
    return HijackLab(
        graph, seed=args.seed, validate=validate, metrics=_metrics(args),
        backend=args.backend,
    )


def _suite(args: argparse.Namespace, *, validate: bool = False):
    """Build the experiment suite ``figure`` and ``report`` share, and
    return ``run(name) -> (result, path)``, which runs one experiment and
    saves its JSON under ``<output-dir>/data``."""
    config = ExperimentConfig(
        topology=GeneratorConfig.scaled(args.as_count, seed=args.seed),
        seed=args.seed,
        output_dir=args.output_dir,
        attacker_sample=args.sample,
        detection_attacks=args.attacks,
        validate=validate,
        backend=args.backend,
    )
    suite = ExperimentSuite(config, metrics=_metrics(args))

    def run(name: str):
        result = suite.run(name)
        return result, result.save_json(args.output_dir / "data")

    return run


def _monitor_exit(args: argparse.Namespace, payload: dict[str, object], report, summary: str) -> int:
    """How ``stream`` and ``ingest`` end: the JSON report to ``--report``
    (or stdout), *summary* with the prefix and alarm counts on stderr,
    and 1 under ``--fail-on-hijack`` if any alarm is CONFIRMED, else 0."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.report}")
    else:
        print(text)
    monitor = report.monitor
    assert monitor is not None
    latency = monitor.detection_latency_time
    print(
        f"{summary} over {len(report.prefixes)} prefix(es); {len(monitor.alarms)} alarm(s)"
        + (f", first at latency {latency} virtual s" if latency is not None else ""),
        file=sys.stderr,
    )
    if not args.fail_on_hijack:
        return 0
    from repro.service.daemon import CONFIRMED_VERDICTS

    confirmed = sum(alarm.verdict in CONFIRMED_VERDICTS for alarm in monitor.alarms)
    if not confirmed:
        return 0
    print(f"fail-on-hijack: {confirmed} CONFIRMED verdict(s)", file=sys.stderr)
    return 1


def _cmd_generate(args: argparse.Namespace) -> int:
    overrides = {} if args.regions is None else {"region_count": args.regions}
    try:
        graph = generate_topology(
            GeneratorConfig.scaled(args.as_count, seed=args.seed, **overrides)
        )
    except ValueError as error:
        raise _InputError(f"generate error: {error}") from error
    dump_caida(graph, args.output)
    print(f"wrote {len(graph)} ASes / {graph.edge_count()} links to {args.output}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    stats = summarize(_graph(args, args.input))
    print(f"ASes: {stats.as_count}   links: {stats.link_count}")
    print(f"tier-1: {len(stats.tier1)}   tier-2: {len(stats.tier2)}")
    print(f"transit: {stats.transit_count} ({stats.transit_fraction:.1%})   stubs: {stats.stub_count}")
    print(f"max depth: {stats.max_depth}")
    print("depth histogram:", dict(sorted(stats.depth_histogram.items())))
    return 0


def _unknown_asn(lab: HijackLab, *asns: int) -> bool:
    """Report the first AS not in the lab's topology on stderr."""
    for asn in asns:
        if not lab.view.has_asn(asn):
            print(f"AS{asn} is not in the topology", file=sys.stderr)
            return True
    return False


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks.scenario import HijackKind, PathKind

    lab = _lab(args, _graph(args, args.input), validate=args.validate)
    if _unknown_asn(lab, args.target, args.attacker):
        return 2
    try:
        scenario = lab.build_scenario(
            args.target,
            args.attacker,
            kind=HijackKind(args.kind),
            path_kind=PathKind(args.path_kind),
            forged_depth=args.forged_depth,
        )
        outcome = lab.run_scenario(scenario)
    except ValueError as error:  # e.g. a sibling attacker: one routing node
        print(f"attack: {error}", file=sys.stderr)
        return 2
    if scenario.kind is HijackKind.ROUTE_LEAK:
        label = "route-leak"
    elif scenario.path_kind is PathKind.TYPE_0:
        label = f"{scenario.kind.value} hijack"
    else:
        label = f"{scenario.kind.value} {scenario.path_kind.value} hijack"
    print(f"{label} of {scenario.prefix} "
          f"(AS{args.target}) by AS{args.attacker}")
    if outcome.claimed_path is None:
        print("attack fizzled: the attacker holds no route to replay")
        return 0
    if len(outcome.claimed_path) > 1:
        print("claimed AS path: " + " ".join(str(asn) for asn in outcome.claimed_path))
    print(f"polluted ASes: {outcome.pollution_count}")
    if outcome.address_fraction is not None:
        print(f"address space polluted: {outcome.address_fraction:.1%}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    lab = _lab(args, _graph(args, args.input), validate=args.validate)
    if _unknown_asn(lab, args.target):
        return 2
    from repro.attacks.scenario import HijackKind, PathKind

    profile = profile_target(
        lab, args.target, transit_only=args.transit_only, sample=args.sample,
        kind=HijackKind(args.kind), path_kind=PathKind(args.path_kind),
        forged_depth=args.forged_depth,
    )
    stats = profile.summary
    print(f"target AS{args.target}: {stats.count} {args.kind}/{args.path_kind} "
          f"attacks, {stats.successful} successful")
    print(f"mean pollution {stats.mean:.0f}, mean (successful) "
          f"{stats.mean_successful:.0f}, max {stats.maximum}")
    rows = [(x, y) for x, y in profile.curve.points()][:: max(1, len(profile.curve.points()) // 12)]
    print(render_table(("min polluted", "attackers"), rows, title="CCDF (sampled rows)"))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    run = _suite(args, validate=args.validate)
    names = _EXPERIMENTS if args.name == "all" else (args.name,)
    params = {
        "as_count": args.as_count,
        "sample": args.sample,
        "attacks": args.attacks,
        "seed": args.seed,
    }
    with ResultStore(args.store) if args.store else contextlib.nullcontext() as store:
        for name in names:
            result, path = run(name)
            if store is not None:
                store.record(result, params=params)
            print(f"{name}: wrote {path}" + (
                f" and {len(result.artifacts)} artifact(s)" if result.artifacts else ""
            ))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    planner = SelfInterestPlanner(_lab(args, _graph(args, args.input)))
    print(planner.plan(args.region, target_asn=args.target).report())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.experiments.calibration import calibrate

    report = calibrate(
        _lab(args, _graph(args, args.input)),
        agreement_samples=args.agreement_samples,
        path_samples=args.path_samples,
        seed=args.seed,
    )
    print(report.render())
    return 0 if report.healthy() else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.oracle.differential import random_hijack_cases, run_differential
    from repro.oracle.invariants import (
        InvariantViolation,
        check_cache_coherence,
        check_convergence_deterministic,
        check_hijack_result,
    )
    from repro.util.rng import make_rng

    failures = 0

    # 1. Differential oracle: fast engine vs the slow reference simulator
    #    on random topologies with random blocking/policy variants.
    try:
        checked = run_differential(
            random_hijack_cases(args.cases, seed=args.seed, max_size=args.max_size)
        )
        print(f"differential oracle: OK ({checked} random hijack cases)")
    except AssertionError as error:
        failures += 1
        print(f"differential oracle: FAIL\n{error}")

    # 2. Invariant suite + determinism on a generated (calibrated) topology.
    #    validate=True: the cache records insert checksums for step 3's audit.
    lab = _lab(args, _graph(args, None), validate=True)
    rng = make_rng(args.seed, "cli-validate")
    pool = lab.attacker_pool(transit_only=True)
    try:
        for _ in range(args.attacks):
            target_asn, attacker_asn = rng.sample(pool, 2)
            target = lab.view.node_of(target_asn)
            attacker = lab.view.node_of(attacker_asn)
            if target == attacker:
                continue
            result = lab.engine.hijack(target, attacker)
            check_hijack_result(lab.view, result, policy=lab.policy)
        check_convergence_deterministic(lab.engine, lab.view.node_of(pool[0]))
        print(f"invariant suite: OK ({args.attacks} hijacks on {args.as_count} ASes)")
    except InvariantViolation as error:
        failures += 1
        print(f"invariant suite: FAIL\n{error}")

    # 3. Cache determinism + coherence: a sweep must be bit-identical
    #    with the convergence cache cold and hot.
    target_asn = pool[1]
    cold = lab.sweep_target(target_asn, sample=48, seed=args.seed)
    hot = lab.sweep_target(target_asn, sample=48, seed=args.seed)
    divergent = list(hot) != list(cold) or any(
        hot[key].polluted_asns != cold[key].polluted_asns for key in cold
    )
    try:
        check_cache_coherence(lab.cache)
    except InvariantViolation as error:
        failures += 1
        print(f"cache coherence: FAIL\n{error}")
    else:
        if divergent:
            failures += 1
            print("sweep determinism: FAIL (cold and hot cache disagree)")
        else:
            print(
                f"sweep determinism + cache coherence: OK "
                f"(cold+hot, {len(lab.cache)} cached baselines)"
            )

    print("validation " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.ingest import TracePipeline, run_ingest
    from repro.stream import write_events

    if args.rib is None and args.updates is None:
        print("ingest needs --rib, --updates, or both", file=sys.stderr)
        return 2
    _check_readable(args.rib, "trace")
    _check_readable(args.updates, "trace")
    lab = _lab(args, _graph(args, args.topology))
    metrics = _metrics(args)
    pipeline = TracePipeline(
        rib_path=args.rib,
        updates_path=args.updates,
        strict=args.strict,
        seed_roas=args.seed_roas,
        metrics=metrics,
    )
    with _trace_errors():
        if args.compile_only is not None:
            # Streaming write: the compiled events go straight to disk,
            # so a multi-million-record trace re-emits in bounded memory.
            path = write_events(args.compile_only, pipeline.events())
            print(f"wrote compiled stream to {path}")
            print(json.dumps(pipeline.stats(), indent=2, sort_keys=True), file=sys.stderr)
            return 0
        result = run_ingest(
            lab,
            pipeline,
            probes=_PROBE_SETS[args.probes](lab.graph),
            batch_window=args.batch_window,
            queue_limit=args.queue_limit,
            metrics=metrics,
        )
    report = result.report
    return _monitor_exit(
        args, result.as_dict(), report, f"ingested {report.events_submitted} events"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import MonitorService, ServiceDaemon

    # The feed is opened by a task after the daemon listens: check first.
    _check_readable(args.input, "stream")
    _check_readable(args.rib, "trace")
    lab = _lab(args, _graph(args, args.topology))
    metrics = _metrics(args)
    service = MonitorService(
        lab,
        probes=_PROBE_SETS[args.probes](lab.graph),
        batch_window=args.batch_window,
        queue_limit=args.queue_limit,
        metrics=metrics,
    )
    if args.rib is not None:
        from repro.ingest import TraceReader, compile_rib

        with _trace_errors():
            baseline = compile_rib(
                TraceReader(args.rib, metrics=metrics), metrics=metrics
            )
        seeded = skipped = 0
        for prefix, legal in baseline.origins.items():
            for origin in sorted(legal):
                try:
                    service.register(f"as{origin}", prefix, origin)
                except ValueError:
                    skipped += 1  # origin absent from this topology
                else:
                    seeded += 1
        print(
            f"seeded {seeded} registration(s) from {args.rib}"
            + (f" ({skipped} origin(s) not in topology)" if skipped else ""),
            flush=True,
        )
    daemon = ServiceDaemon(service, host=args.host, port=args.port)

    async def _run() -> None:
        await daemon.start()
        print(
            f"service listening on http://{daemon.host}:{daemon.port} "
            f"(probes {service.plane.probes.name})",
            flush=True,
        )
        if args.input is not None:
            daemon.feed_file(args.input, follow=args.follow)
        await daemon.wait_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    health = service.health()
    print(
        f"served {health['events']['ingested']} events "
        f"({health['events']['malformed']} malformed) for "
        f"{health['tenants']} tenant(s): {health['verdicts']} verdict(s), "
        f"{health['mitigations']} mitigation(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.attacks.scenario import HijackScenario
    from repro.detection.detector import HijackDetector
    from repro.stream import (
        StreamFormatError,
        StreamReplayer,
        compile_campaign,
        read_events,
        write_events,
    )
    from repro.util.lines import iter_chunk_lines
    from repro.util.rng import make_rng

    # ``-i`` is the *event stream* here (unlike the batch commands, where
    # it is the topology file) — the topology comes from ``--topology``.
    _check_readable(args.input, "stream")
    lab = _lab(args, _graph(args, args.topology), validate=args.validate)
    events = None
    if args.input is not None:
        if args.compile_only is not None:
            # Re-emitting a stream is tooling, not monitoring: strict
            # parsing (any malformed line is an error) is the right call.
            try:
                events = read_events(args.input)
            except StreamFormatError as error:
                raise _InputError(f"stream error: {error}") from error
    else:
        rng = make_rng(args.seed, "cli-stream")
        pool = lab.attacker_pool()
        scenarios: list[HijackScenario] = []
        while len(scenarios) < args.attacks:
            target_asn, attacker_asn = rng.sample(pool, 2)
            if lab.view.node_of(target_asn) == lab.view.node_of(attacker_asn):
                continue
            scenarios.append(
                HijackScenario(
                    target_asn=target_asn,
                    attacker_asn=attacker_asn,
                    prefix=lab.plan.primary_prefix(target_asn),
                )
            )
        events = compile_campaign(
            scenarios, publish_roas=args.publish_roas, dwell=args.dwell
        )
    if args.compile_only is not None:
        assert events is not None
        path = write_events(args.compile_only, events)
        print(f"wrote {len(events)} events to {path}")
        return 0
    replayer = StreamReplayer(
        lab,
        detector=HijackDetector(_PROBE_SETS[args.probes](lab.graph)),
        batch_window=args.batch_window,
        queue_limit=args.queue_limit,
        metrics=_metrics(args),
    )
    if events is None:
        # Replaying a feed file: raw lines through the replay engine's
        # tolerant path, so an undecodable, overlong or malformed line is
        # skipped and counted (events.malformed in the report) instead
        # of killing the whole run.
        assert args.input is not None
        with args.input.open("rb") as handle:
            replayer.submit_lines(iter_chunk_lines(handle))
        report = replayer.finish()
    else:
        report = replayer.run(events)
    return _monitor_exit(
        args, report.as_dict(), report,
        f"replayed {report.events_submitted} events ({report.events_coalesced} "
        f"coalesced, {report.events_malformed} malformed, {len(report.errors)} errors)",
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reportgen import render_experiments_markdown

    run = _suite(args)
    results = []
    for name in _EXPERIMENTS:
        print(f"running {name}…", flush=True)
        results.append(run(name)[0])
    text = render_experiments_markdown(
        results,
        context={
            "as_count": args.as_count,
            "attacker_sample": args.sample,
            "detection_attacks": args.attacks,
            "seed": args.seed,
        },
    )
    args.output.write_text(text, encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "summarize": _cmd_summarize,
    "attack": _cmd_attack,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "plan": _cmd_plan,
    "calibrate": _cmd_calibrate,
    "validate": _cmd_validate,
    "stream": _cmd_stream,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.metrics_sink = Metrics() if args.metrics else NULL_METRICS
    note = sys.stdout
    try:
        status = _HANDLERS[args.command](args)
    except _InputError as error:
        # A run that stops on bad input keeps its stdout empty; the
        # snapshot of the work it did is still written.
        print(error, file=sys.stderr)
        status, note = 1, sys.stderr
    if args.metrics:
        path = args.metrics_sink.write_json(args.metrics)
        print(f"wrote metrics snapshot to {path}", file=note)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
