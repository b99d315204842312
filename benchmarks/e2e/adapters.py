"""Every call the benchmark makes into ``repro`` goes through this module.

When a refactor renames an API, the benchmark is fixed here and nowhere
else (in a change of its own: a change that claims a gain may not edit
the benchmark). ``TRACED`` lists the public callables the traced run
wraps; their span names are the layer names of the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.defense.strategies import tier1_deployment, top_degree_deployment
from repro.detection.probes import tier1_probes, top_degree_probes
from repro.detection.taxonomy import grid_cells
from repro.ingest.pipeline import TracePipeline, run_ingest
from repro.obs.metrics import Metrics
from repro.registry.roa import RoaTable, RouteOriginAuthorization
from repro.service.daemon import MonitorService
from repro.stream.events import compile_scenario, event_to_dict
from repro.stream.incremental import AnnounceEntry, full_converge
from repro.topology import caida
from repro.topology.classify import depth_to_tier1
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.scalefixture import ScaleFixtureConfig, generate_scale_fixture

from benchmarks.e2e.tracing import Traced

LADDER_CORE_SIZES = (62, 166, 299)  # the paper's degree tiers after tier-1

TRACED = (
    Traced("topology.load", "repro.topology.caida:load_caida_mmap"),
    Traced("topology.view", "repro.topology.view:RoutingView.from_graph"),
    Traced("topology.view", "repro.bgp.kernel:compile_view"),
    Traced("bgp.converge", "repro.bgp.engine:RoutingEngine.converge"),
    Traced(
        "bgp.converge_batch", "repro.bgp.engine:RoutingEngine.converge_batch",
        count=("bgp.converge_batch.columns", lambda _engine, origins: len(origins)),
    ),
    Traced(
        "bgp.converge_delta_batch",
        "repro.bgp.engine:RoutingEngine.converge_delta_batch",
    ),
    Traced("bgp.converge_delta", "repro.bgp.engine:RoutingEngine.converge_delta"),
    Traced("bgp.delta_revert", "repro.bgp.engine:ConvergenceDelta.revert"),
    Traced("bgp.checksum", "repro.bgp.engine:RouteState.checksum"),
    Traced("attacks.lab.sweep_target", "repro.attacks.lab:HijackLab.sweep_target"),
    Traced(
        "attacks.lab.sweep_deployments",
        "repro.attacks.lab:HijackLab.sweep_deployments",
    ),
    Traced("attacks.lab.build_scenario", "repro.attacks.lab:HijackLab.build_scenario"),
    Traced("defense.blocking_nodes", "repro.defense.deployment:Defense.blocking_nodes"),
    Traced("ingest.records.next", "repro.ingest.records:TraceReader.__iter__", "iter"),
    # pipeline.py binds compile_rib by name at import, so both bindings.
    Traced("ingest.compiler.compile_rib", "repro.ingest.compiler:compile_rib"),
    Traced("ingest.compiler.compile_rib", "repro.ingest.pipeline:compile_rib"),
    Traced("ingest.compiler.next", "repro.ingest.compiler:UpdateCompiler.__iter__", "iter"),
    Traced("stream.replay.submit", "repro.stream.replay:StreamReplayer.submit"),
    Traced("stream.replay.flush", "repro.stream.replay:StreamReplayer.flush"),
    Traced("stream.replay.report", "repro.stream.replay:StreamReplayer.report"),
    Traced("stream.incremental.announce", "repro.stream.incremental:PrefixLedger.announce"),
    Traced("stream.incremental.withdraw", "repro.stream.incremental:PrefixLedger.withdraw"),
    Traced("stream.monitor.observe", "repro.stream.monitor:OnlineMonitor.observe"),
    Traced(
        "detection.observe_conflict",
        "repro.detection.detector:HijackDetector.observe_conflict",
    ),
    Traced("service.tenants.match", "repro.service.tenants:TenantRegistry.match"),
    Traced("service.shards.submit_line", "repro.service.shards:ShardPlane.submit_line"),
    Traced("service.shards.drain_alarms", "repro.service.shards:ShardPlane.drain_alarms"),
    Traced("service.daemon.ingest_line", "repro.service.daemon:MonitorService.ingest_line"),
    Traced("service.daemon.poll", "repro.service.daemon:MonitorService.poll"),
    Traced(
        "service.daemon.verdict_payloads",
        "repro.service.daemon:MonitorService.verdict_payloads",
    ),
)


# -- input generation (harness side) ---------------------------------------


def write_scale_topology(path: Path, as_count: int):
    """The CAIDA-scale fixture (42,697 ASes at full size) as a CAIDA file."""
    graph = generate_scale_fixture(ScaleFixtureConfig.scaled(as_count))
    caida.dump_caida(graph, path)
    return graph


def write_default_topology(path: Path, as_count: int):
    """The calibrated synthetic topology (4,270 ASes by default) as a CAIDA file."""
    graph = generate_topology(GeneratorConfig.scaled(as_count))
    caida.dump_caida(graph, path)
    return graph


def asns_of(graph) -> list[int]:
    return sorted(graph.asns())


def depths_of(graph) -> dict[int, int]:
    """ASN -> provider hops to the tier-1 clique."""
    return depth_to_tier1(graph)


def attack_grid_lines(
    graph, seed: int, tenant_asns: Sequence[int], attackers: Sequence[int], count: int
) -> tuple[list[tuple[str, int]], list[str]]:
    """Tenant ``(prefix, origin)`` pairs and *count* scenarios' JSONL lines.

    Scenario *i* attacks tenant ``i mod len(tenants)`` with grid cell
    ``i mod 13`` from the next attacker; the legitimate announce, the
    bogus announce and its withdraw are four virtual seconds apart from
    the next scenario's, so ledgers stay short.
    """
    lab = HijackLab(graph, seed=seed)
    cells = grid_cells()
    tenants = [(str(lab.target_prefix(asn)), asn) for asn in tenant_asns]
    events = []
    for index in range(count):
        target = tenant_asns[index % len(tenant_asns)]
        shift = 0
        attacker = attackers[index % len(attackers)]
        while lab.view.node_of(attacker) == lab.view.node_of(target):
            shift += 1  # a sibling of the target cannot attack it
            attacker = attackers[(index + shift) % len(attackers)]
        kind, path_kind = cells[index % len(cells)]
        scenario = lab.build_scenario(target, attacker, kind=kind, path_kind=path_kind)
        events.extend(compile_scenario(scenario, start=float(index * 4), dwell=2.0))
    events.sort(key=lambda event: event.at)
    lines = [
        json.dumps(event_to_dict(event), sort_keys=True, separators=(",", ":"))
        for event in events
    ]
    return tenants, lines


# -- the program under test (worker side) ----------------------------------


def new_metrics() -> Metrics:
    return Metrics()


def load_topology(path: str):
    return caida.load_caida_mmap(path)


def sweep_lab(graph, metrics: Metrics | None) -> HijackLab:
    """The paper-scale sweep configuration: array kernel, 16 fused origins."""
    return HijackLab(graph, backend="array", batch_origins=16, metrics=metrics)


def default_lab(graph, metrics: Metrics | None) -> HijackLab:
    """The lab ``repro ingest`` / ``repro serve`` build with no flags."""
    return HijackLab(graph, metrics=metrics)


def ladder_of(lab: HijackLab):
    """Four deployment rungs: the tier-1 clique, then the paper's degree cores."""
    return [tier1_deployment(lab.graph)] + [
        top_degree_deployment(lab.graph, size) for size in LADDER_CORE_SIZES
    ]


def sweep_target(lab: HijackLab, target_asn: int, sample: int, seed: int):
    return lab.sweep_target(target_asn, sample=sample, seed=seed)


def sweep_ladder(lab: HijackLab, target_asn: int, ladder, sample: int, seed: int):
    """One ladder sweep; the target's ROA is what makes the attacks INVALID."""
    authority = RoaTable(
        [RouteOriginAuthorization(lab.target_prefix(target_asn), target_asn)]
    )
    return lab.sweep_deployments(
        target_asn, ladder, authority, transit_only=False, sample=sample, seed=seed
    )


def pollution_items(outcomes) -> Iterator[tuple[int, int, frozenset[int]]]:
    """``(target, attacker, polluted ASNs)`` per outcome, in sweep order."""
    for attacker, outcome in outcomes.items():
        yield outcome.scenario.target_asn, attacker, outcome.polluted_asns


def reference_pollution(lab: HijackLab, target_asn: int, attacker_asn: int) -> frozenset[int]:
    """One undefended origin hijack on the scalar reference kernel."""
    view = lab.view
    engine = RoutingEngine(view, lab.policy, backend="reference")
    target, attacker = view.node_of(target_asn), view.node_of(attacker_asn)
    final = engine.converge(attacker, base=engine.converge(target))
    return view.expand(final.holders_of(attacker)) - {attacker_asn}


def cache_stats(lab: HijackLab) -> tuple[int, float]:
    return lab.cache.stats.lookups, lab.cache.stats.hit_rate


def ingest_probes(graph):
    """``repro ingest``'s default vantage points."""
    return tier1_probes(graph)


def open_pipeline(rib_path: str, updates_path: str, metrics: Metrics | None) -> TracePipeline:
    return TracePipeline(rib_path=rib_path, updates_path=updates_path, metrics=metrics)


def rib_wave_size(pipeline: TracePipeline) -> int:
    """Compiles the RIB baseline; returns how many announces it opens with."""
    return len(pipeline.baseline().announces)


def ingest(lab: HijackLab, pipeline, probes, batch_window: float, metrics: Metrics | None):
    """``repro ingest``'s core call; returns the report payload it prints."""
    result = run_ingest(
        lab, pipeline, probes=probes, batch_window=batch_window, metrics=metrics
    )
    return result.as_dict()


def cold_checksum(lab: HijackLab, origin_chain: Iterable[int]) -> str | None:
    """Checksum of a cold full convergence of undefended honest announces."""
    view = lab.view
    entries = [
        AnnounceEntry(origin=view.node_of(asn), origin_asn=asn) for asn in origin_chain
    ]
    state = full_converge(lab.engine, entries)
    return state.checksum() if state is not None else None


def monitor_service(lab: HijackLab, metrics: Metrics | None) -> MonitorService:
    """The service ``repro serve --shards 1`` builds."""
    return MonitorService(
        lab, shards=1, probes=top_degree_probes(lab.graph), metrics=metrics
    )


def register_tenant(service: MonitorService, tenant: str, prefix: str, origin: int,
                    auto_mitigate: bool) -> None:
    service.register(tenant, prefix, origin, auto_mitigate=auto_mitigate)


def ingest_line_and_poll(service: MonitorService, line: str) -> None:
    service.ingest_line(line)
    service.poll()


def verdict_keys(service: MonitorService) -> list[list[str]]:
    """Sorted distinct ``[tenant, prefix, verdict]`` of everything raised."""
    return verdict_keys_of(service.verdict_payloads())


def verdict_keys_of(payloads: Iterable[dict]) -> list[list[str]]:
    keys = {
        (str(item["tenant"]), str(item["prefix"]), str(item["verdict"]))
        for item in payloads
    }
    return [list(key) for key in sorted(keys)]


def mitigation_count(service: MonitorService) -> int:
    return len(service.mitigations)


def obs_counters(metrics: Metrics) -> dict[str, float]:
    return dict(metrics.snapshot()["counters"])


def daemon_command(topology_path: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--topology", topology_path, "--shards", "1", "--port", "0",
    ]


def digest(payload: object) -> str:
    """Digest of a JSON-serializable payload in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
