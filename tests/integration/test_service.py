"""End-to-end: the live daemon against the offline monitor.

The acceptance pins for the monitoring service (ISSUE 9):

* the daemon boots, two tenants register live, a replayed 13-cell
  taxonomy stream produces — over the JSON API — the same alarms as
  the offline :class:`~repro.stream.monitor.OnlineMonitor` path, in
  order and in full (virtual and event-count latency included);
* the auto-mitigation hook's DefenseActivate + deaggregation measurably
  restores the victim's routes;
* ``repro-bgp serve`` works as a real subprocess over real sockets.
"""

import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.attacks.lab import HijackLab
from repro.detection.detector import HijackDetector
from repro.detection.probes import top_degree_probes
from repro.detection.taxonomy import grid_cells
from repro.registry.neighbors import NeighborRegistry
from repro.service.daemon import MonitorService
from repro.stream.events import RoaPublish, compile_scenario, event_to_dict
from repro.stream.replay import StreamReplayer
from repro.util.rng import make_rng

from tests.service_thread import ServiceThread

REPO_ROOT = Path(__file__).resolve().parents[2]


def http(base_url, method, path, payload=None, raw=None):
    if raw is not None:
        data = raw.encode("utf-8")
    elif payload is not None:
        data = json.dumps(payload).encode("utf-8")
    else:
        data = None
    request = urllib.request.Request(base_url + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def alarm_key(verdict_payload):
    """The alarm inside a served verdict: its payload minus attribution."""
    return {
        key: value for key, value in verdict_payload.items()
        if key not in ("tenant", "confirmed")
    }


@pytest.fixture(scope="module")
def workload(medium_graph):
    """Two victims, the full 13-cell grid, one deterministic JSONL stream."""
    lab = HijackLab(medium_graph, seed=7)
    rng = make_rng(7, "service-e2e")
    pool = list(lab.attacker_pool(transit_only=True))
    targets = (pool[3], pool[5])
    attackers = [
        asn for asn in rng.sample(pool, len(pool))
        if all(lab.view.node_of(asn) != lab.view.node_of(t) for t in targets)
    ]
    events = []
    for index, (kind, path_kind) in enumerate(grid_cells()):
        target = targets[index % 2]
        scenario = lab.build_scenario(
            target,
            attackers[index % len(attackers)],
            kind=kind,
            path_kind=path_kind,
        )
        events.extend(compile_scenario(scenario, start=float(index * 4), dwell=2.0))
    events.sort(key=lambda event: event.at)
    lines = [
        json.dumps(event_to_dict(event), sort_keys=True, separators=(",", ":"))
        for event in events
    ]
    return lab, targets, events, lines


class TestDaemonParity:
    def offline_reference(self, lab, targets, events, probes):
        replayer = StreamReplayer(
            lab,
            detector=HijackDetector(
                probes,
                neighbors=NeighborRegistry.from_graph(lab.graph),
                relationships=lab.graph,
            ),
        )
        for target in targets:
            replayer.submit(
                RoaPublish(
                    at=0.0, prefix=lab.target_prefix(target), origin_asn=target
                )
            )
        replayer.run(events)
        return replayer.monitor.alarms

    def test_api_verdicts_match_offline_monitor(self, workload):
        lab, targets, events, lines = workload
        probes = top_degree_probes(lab.graph)
        offline = self.offline_reference(lab, targets, events, probes)
        assert len(offline) >= len(grid_cells()) - 1  # the grid fires broadly

        service = MonitorService(lab, probes=probes)
        thread = ServiceThread(service).start()
        try:
            for index, target in enumerate(targets):
                registration = http(
                    thread.base_url,
                    "POST", f"/tenants/tenant{index}/prefixes",
                    payload={
                        "prefix": str(lab.target_prefix(target)),
                        "origin": target,
                    },
                )
                assert registration["origin"] == target
            health = http(thread.base_url, "GET", "/health")
            assert health["tenants"] == 2

            outcome = http(
                thread.base_url, "POST", "/events", raw="\n".join(lines)
            )
            assert outcome["malformed"] == 0
            assert outcome["accepted"] == len(lines)

            served = http(thread.base_url, "GET", "/verdicts")["verdicts"]
        finally:
            thread.stop()

        assert [alarm_key(v) for v in served] == [alarm.as_dict() for alarm in offline]
        # Every verdict was attributed: both tenants' prefixes were
        # attacked, so each side of the grid reached its tenant.
        tenants_paged = {v["tenant"] for v in served}
        assert {"tenant0", "tenant1"} <= tenants_paged

    def test_latency_stats_populated_per_tenant(self, workload):
        lab, targets, _events, lines = workload
        probes = top_degree_probes(lab.graph)
        service = MonitorService(lab, probes=probes)
        for index, target in enumerate(targets):
            service.register(
                f"tenant{index}", lab.target_prefix(target), target
            )
        for line in lines:
            service.ingest_line(line)
        service.poll()
        for index in range(2):
            stats = service.tenant_stats(f"tenant{index}")
            assert stats["latency"]["count"] >= 1
            assert stats["latency"]["p50"] is not None


class TestAutoMitigation:
    def test_defense_activate_restores_victim_routes(self, workload):
        lab, targets, _events, _lines = workload
        target = targets[0]
        probes = top_degree_probes(lab.graph)
        rng = make_rng(7, "service-e2e-mitigation")
        pool = [
            asn for asn in lab.attacker_pool(transit_only=True)
            if lab.view.node_of(asn) != lab.view.node_of(target)
        ]
        attacker = rng.choice(pool)
        deployers = tuple(sorted(probes.asns)[:3])

        service = MonitorService(lab, probes=probes)
        service.register(
            "victim", lab.target_prefix(target), target,
            auto_mitigate=True, deployers=deployers,
        )
        scenario = lab.subprefix_hijack(target, attacker).scenario
        for event in compile_scenario(scenario, start=1.0):
            service.ingest_line(json.dumps(event_to_dict(event)))
        service.poll()

        assert len(service.mitigations) == 1
        record = service.mitigations[0]
        assert record.prefix == str(scenario.prefix)
        assert record.deployers == deployers
        # The deaggregated more-specifics beat the hijacked NLRI by
        # longest-prefix match: the victim's reach measurably recovers.
        assert record.coverage_after > record.coverage_before
        assert record.coverage_after > 0.9
        defense = service.replayer.defense
        assert set(deployers) <= set(defense.strategy.deployers)


class TestServeSubprocess:
    def test_serve_smoke_over_real_sockets(self, tmp_path):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--as-count", "300", "--port", "0",
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("service listening on http://")
            base_url = banner.split()[3]

            http(base_url, "POST", "/tenants/acme/prefixes",
                 payload={"prefix": "198.51.100.0/24", "origin": 250})
            outcome = http(
                base_url, "POST", "/events",
                raw="\n".join([
                    json.dumps({"kind": "roa-publish", "at": 0.0,
                                "prefix": "198.51.100.0/24", "origin": 250}),
                    json.dumps({"kind": "announce", "at": 0.0,
                                "prefix": "198.51.100.0/24", "origin": 250}),
                    json.dumps({"kind": "announce", "at": 1.0,
                                "prefix": "198.51.100.0/24", "origin": 30}),
                ]),
            )
            verdicts = outcome["verdicts"]
            assert [(v["tenant"], v["verdict"]) for v in verdicts] == [
                ("acme", "hijack")
            ]
            stats = http(base_url, "GET", "/tenants/acme/stats")
            assert stats["latency"]["count"] == 1
            assert stats["latency"]["p50"] == 0.0  # unbatched: judged on arrival

            assert http(base_url, "POST", "/shutdown")["status"] == "stopping"
            stdout, stderr = process.communicate(timeout=60)
            assert process.returncode == 0
            assert "served" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
