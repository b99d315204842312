"""Unit tests for the monitoring service core (registry, replay plane, daemon).

Everything here runs against the hand-verifiable ``mini_graph`` through
the synchronous :class:`~repro.service.daemon.MonitorService` — no event
loop, no sockets (the async shell has its own suite in
``test_service_api.py``).
"""

import json
import random

import pytest

from repro.attacks.lab import HijackLab
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet
from repro.obs.metrics import Metrics
from repro.prefixes.prefix import Prefix
from repro.registry.neighbors import NeighborRegistry
from repro.service.daemon import CONFIRMED_VERDICTS, MonitorService
from repro.service.shards import ShardPlane
from repro.service.tenants import LatencyStats, TenantRegistration, TenantRegistry
from repro.stream.events import Announce, DefenseActivate, RoaPublish, event_to_dict
from repro.stream.monitor import OnlineMonitor
from repro.stream.replay import StreamReplayer


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture
def lab(mini_graph) -> HijackLab:
    return HijackLab(mini_graph, seed=1)


@pytest.fixture
def probes():
    return ProbeSet("pair", frozenset([10, 20]))


def service_for(lab, probes, **kwargs) -> MonitorService:
    return MonitorService(lab, probes=probes, **kwargs)


def feed(service: MonitorService, *events) -> None:
    """Ingest *events* as JSONL lines, the path ``POST /events`` and the feed take."""
    for event in events:
        assert service.ingest_line(json.dumps(event_to_dict(event)))


# -- registry ---------------------------------------------------------------


class TestTenantRegistry:
    def registration(self, tenant="acme", prefix="10.0.0.0/16", origin=50, **kw):
        return TenantRegistration(tenant, p(prefix), origin, **kw)

    def test_register_and_match_exact(self):
        registry = TenantRegistry()
        registry.register(self.registration())
        assert [r.tenant for r in registry.match(p("10.0.0.0/16"))] == ["acme"]

    def test_match_subprefix_via_covering(self):
        # A hijacked more-specific must hit the covering registration.
        registry = TenantRegistry()
        registry.register(self.registration())
        assert [r.tenant for r in registry.match(p("10.0.128.0/17"))] == ["acme"]

    def test_match_supernet_via_iter_covered(self):
        # An announced covering prefix must hit registrations under it.
        registry = TenantRegistry()
        registry.register(self.registration(prefix="10.0.128.0/17"))
        assert [r.tenant for r in registry.match(p("10.0.0.0/16"))] == ["acme"]

    def test_match_unrelated_is_empty(self):
        registry = TenantRegistry()
        registry.register(self.registration())
        assert registry.match(p("192.168.0.0/16")) == []

    def test_two_tenants_same_prefix(self):
        registry = TenantRegistry()
        registry.register(self.registration(tenant="acme"))
        registry.register(self.registration(tenant="globex", origin=60))
        assert len(registry) == 2
        assert sorted(r.tenant for r in registry.match(p("10.0.0.0/16"))) == [
            "acme", "globex",
        ]
        assert registry.tenants() == ["acme", "globex"]

    def test_deregister(self):
        registry = TenantRegistry()
        registry.register(self.registration())
        dropped = registry.deregister("acme", p("10.0.0.0/16"))
        assert dropped.origin_asn == 50
        assert len(registry) == 0
        with pytest.raises(KeyError):
            registry.deregister("acme", p("10.0.0.0/16"))

    def test_for_tenant(self):
        registry = TenantRegistry()
        registry.register(self.registration())
        registry.register(self.registration(prefix="172.16.0.0/12"))
        registry.register(self.registration(tenant="globex", prefix="192.0.2.0/24"))
        assert len(registry.for_tenant("acme")) == 2

    def test_tenant_reads_equal_the_trie_walk(self):
        rng = random.Random(7)
        tenants = ["acme", "globex", "initech", "umbrella"]
        prefixes = [
            "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.0.128.0/17",
            "10.1.0.0/16", "172.16.0.0/12", "192.0.2.0/24",
        ]
        registry = TenantRegistry()
        for _ in range(300):
            tenant, prefix = rng.choice(tenants), rng.choice(prefixes)
            if rng.random() < 0.6:
                registry.register(
                    self.registration(tenant, prefix, rng.choice([50, 60]))
                )
            else:
                try:
                    registry.deregister(tenant, p(prefix))
                except KeyError:
                    pass
            walked = registry.registrations()
            assert registry.tenants() == sorted({r.tenant for r in walked})
            for name in tenants:
                assert registry.for_tenant(name) == [
                    r for r in walked if r.tenant == name
                ]

    def test_registration_as_dict(self):
        payload = self.registration(auto_mitigate=True, deployer_asns=(1, 2)).as_dict()
        assert payload == {
            "tenant": "acme", "prefix": "10.0.0.0/16", "origin": 50,
            "max_length": None, "auto_mitigate": True, "deployers": [1, 2],
        }


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.count == 0 and stats.mean is None
        assert stats.percentile(0.5) is None
        assert stats.as_dict() == {"count": 0, "mean": None, "p50": None, "p95": None}

    def test_nearest_rank(self):
        stats = LatencyStats()
        for value in (4.0, 1.0, 3.0, 2.0):
            stats.add(value)
        assert stats.percentile(0.50) == 2.0
        assert stats.percentile(0.95) == 4.0
        assert stats.mean == 2.5

    def test_single_sample(self):
        stats = LatencyStats(samples=[7.0])
        assert stats.percentile(0.50) == 7.0
        assert stats.percentile(0.95) == 7.0


# -- replay plane -----------------------------------------------------------


class TestShardPlane:
    def test_malformed_lines_counted_not_fatal(self, lab, probes):
        metrics = Metrics()
        plane = ShardPlane(lab, probes=probes, metrics=metrics)
        assert plane.submit_line("{broken") is False
        assert plane.submit_line('{"kind":"teleport","at":0.0}') is False
        prefix = lab.target_prefix(50)
        assert plane.submit_line(
            '{"at":0.0,"kind":"announce","origin":50,"prefix":"%s"}' % prefix
        ) is True
        plane.flush()
        assert plane.replayer.counts["malformed"] == 2
        assert plane.ingested == 1
        assert len(plane.replayer.errors) == 2
        assert metrics.snapshot()["counters"]["stream.replay.malformed"] == 2

    def test_error_log_is_bounded(self, lab, probes):
        plane = ShardPlane(lab, probes=probes)
        for _ in range(40):
            plane.submit_line("{broken")
        report = plane.replayer.report()
        assert report.events_malformed == 40
        assert (len(report.errors), report.errors_dropped) == (32, 8)

    def test_counts_aggregate(self, lab, probes):
        # /health's event counters: the replayer's, plus what the plane took in.
        service = service_for(lab, probes)
        feed(service, RoaPublish(at=0.0, prefix=lab.target_prefix(50), origin_asn=50))
        service.ingest_line("{broken")
        service.poll()
        counts = service.health()["events"]
        assert counts == {**service.replayer.counts, "ingested": 1}
        assert (counts["submitted"], counts["applied"], counts["malformed"]) == (1, 1, 1)

    def test_failing_event_is_isolated(self, lab, probes, monkeypatch):
        def broken(*_args, **_kwargs):
            raise RuntimeError("monitor exploded")

        monkeypatch.setattr(OnlineMonitor, "observe", broken)
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        line = '{"at":%s,"kind":"announce","origin":%d,"prefix":"%s"}'
        assert service.ingest_line(line % (0.0, 50, prefix)) is True
        # The next event's time flushes the first one: its observe fails
        # inside submit, and the incoming event is still queued.
        assert service.ingest_line(line % (1.0, 60, prefix)) is True
        assert service.ingest_line(line % (2.0, 70, prefix)) is True
        # The last one's observe fails in the flush that poll runs.
        assert service.poll() == []
        replayer = service.replayer
        assert replayer.errors == [
            f"observe {prefix} at {at}: monitor exploded" for at in (0.0, 1.0, 2.0)
        ]
        assert service.plane.ingested == 3
        assert replayer.counts["submitted"] == replayer.counts["applied"] == 3

    def test_submit_failure_is_logged_by_the_replayer(self, lab, probes, monkeypatch):
        def broken(*_args, **_kwargs):
            raise RuntimeError("counter exploded")

        monkeypatch.setattr(OnlineMonitor, "note_event", broken)
        metrics = Metrics()
        plane = ShardPlane(lab, probes=probes, metrics=metrics)
        prefix = lab.target_prefix(50)
        plane.submit(Announce(at=0.0, prefix=prefix, origin_asn=50))
        assert plane.ingested == 1
        assert plane.replayer.errors == ["Announce at 0.0: counter exploded"]
        assert metrics.snapshot()["counters"]["stream.replay.errors"] == 1

    def test_shards_must_be_positive(self, lab):
        # The service runs one replayer; 1 is the only shard count left.
        for shards in (0, 2):
            with pytest.raises(ValueError, match="shards must be 1"):
                MonitorService(lab, shards=shards)
        assert MonitorService(lab, shards=1).plane.ingested == 0

    def test_drain_alarms_returns_only_fresh(self, lab, probes):
        plane = ShardPlane(lab, probes=probes)
        prefix = lab.target_prefix(50)
        plane.submit(RoaPublish(at=0.0, prefix=prefix, origin_asn=50))
        plane.submit(Announce(at=0.0, prefix=prefix, origin_asn=50))
        plane.submit(Announce(at=1.0, prefix=prefix, origin_asn=60))
        plane.flush()
        first = plane.drain_alarms()
        assert [alarm.verdict for alarm in first] == ["hijack"]
        assert first == plane.replayer.monitor.alarms
        assert plane.drain_alarms() == []


# -- the service core -------------------------------------------------------


class TestMonitorService:
    def test_register_publishes_roa_everywhere(self, lab, probes):
        service = service_for(lab, probes)
        service.register("acme", lab.target_prefix(50), 50)
        assert service.health()["roas"] == 1
        assert len(service.replayer.monitor.detector.authority) == 1

    def test_register_rejects_unknown_asns(self, lab, probes):
        service = service_for(lab, probes)
        with pytest.raises(ValueError, match="unknown origin"):
            service.register("acme", lab.target_prefix(50), 999999)
        with pytest.raises(ValueError, match="unknown deployer"):
            service.register(
                "acme", lab.target_prefix(50), 50, deployers=(999999,)
            )

    def test_deregister_revokes_roa(self, lab, probes):
        service = service_for(lab, probes)
        service.register("acme", lab.target_prefix(50), 50)
        service.deregister("acme", lab.target_prefix(50))
        assert len(service.replayer.authority) == 0
        assert len(service.registry) == 0

    def test_deregister_keeps_a_roa_another_tenant_still_needs(self, lab, probes):
        """Two tenants publish the same ROA (an anycast consortium); the
        table holds it once, so one tenant leaving must not revoke it."""
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        service.register("a", prefix, 50)
        service.register("b", prefix, 50, auto_mitigate=True)
        service.deregister("a", prefix)
        assert len(service.replayer.authority) == 1
        fresh = self.hijack(service, prefix)
        assert [(v.tenant, v.alarm.verdict) for v in fresh] == [("b", "hijack")]
        assert fresh[0].confirmed is True
        assert len(service.mitigations) == 1
        # The last tenant to leave revokes it (the mitigation's
        # more-specific ROAs stay).
        published = len(service.replayer.authority)
        service.deregister("b", prefix)
        assert len(service.replayer.authority) == published - 1

    def test_reregister_revokes_the_replaced_roa(self, lab, probes):
        """A re-registration replaces the tenant's ROA: the old one is
        revoked unless a live registration still publishes it."""
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)

        def published():
            return {(roa.prefix, roa.origin_asn) for roa in service.replayer.authority}

        # A lone tenant moves its origin: AS50 must not stay VALID.
        service.register("acme", prefix, 50)
        service.register("acme", prefix, 60)
        assert published() == {(prefix, 60)}
        service.deregister("acme", prefix)
        assert published() == set()

        # Re-registering the identical ROA keeps it.
        service.register("acme", prefix, 50)
        service.register("acme", prefix, 50, auto_mitigate=True)
        assert published() == {(prefix, 50)}

        # Another tenant still publishes the replaced ROA: it stays
        # until that tenant leaves too.
        service.register("globex", prefix, 50)
        service.register("acme", prefix, 60)
        assert published() == {(prefix, 50), (prefix, 60)}
        service.deregister("globex", prefix)
        assert published() == {(prefix, 60)}
        service.deregister("acme", prefix)
        assert published() == set()

    def hijack(self, service, prefix, attacker=60):
        feed(service, Announce(at=0.0, prefix=prefix, origin_asn=50))
        feed(service, Announce(at=1.0, prefix=prefix, origin_asn=attacker))
        return service.poll()

    def test_hijack_verdict_attributed_to_tenant(self, lab, probes):
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        service.register("acme", prefix, 50)
        fresh = self.hijack(service, prefix)
        assert len(fresh) == 1
        verdict = fresh[0]
        assert verdict.tenant == "acme"
        assert verdict.alarm.verdict == "hijack"
        assert verdict.confirmed is True
        assert service.tenant_stats("acme")["latency"]["count"] == 1

    def test_unclaimed_space_yields_anonymous_verdict(self, lab, probes):
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        feed(service, RoaPublish(at=0.0, prefix=prefix, origin_asn=50))
        fresh = self.hijack(service, prefix)
        assert [v.tenant for v in fresh] == [None]
        assert service.verdicts[0].confirmed is True

    def test_subprefix_hijack_reaches_covering_tenant(self, lab, probes):
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        service.register("acme", prefix, 50)
        sub = next(iter(prefix.subnets()))
        feed(service, Announce(at=0.0, prefix=prefix, origin_asn=50))
        feed(service, Announce(at=1.0, prefix=sub, origin_asn=60))
        fresh = service.poll()
        assert [(v.tenant, v.alarm.verdict) for v in fresh] == [("acme", "hijack")]
        assert fresh[0].alarm.prefix == sub

    def test_poll_without_events_is_empty(self, lab, probes):
        service = service_for(lab, probes)
        assert service.poll() == []

    def test_verdict_payload_is_json_stable(self, lab, probes):
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        service.register("acme", prefix, 50)
        self.hijack(service, prefix)
        payload = json.loads(json.dumps(service.verdict_payloads()))
        assert payload[0]["tenant"] == "acme"
        assert payload[0]["verdict"] == "hijack"
        assert payload[0]["confirmed"] is True

    def test_verdict_json_is_the_encoded_payloads(self, lab, probes):
        service = service_for(lab, probes)
        for tenant, target, attacker in (("acme", 50, 60), ("globex", 70, 80)):
            prefix = lab.target_prefix(target)
            service.register(tenant, prefix, target)
            feed(service, Announce(at=0.0, prefix=prefix, origin_asn=target))
            feed(service, Announce(at=1.0, prefix=prefix, origin_asn=attacker))
        unclaimed = lab.target_prefix(30)
        feed(service, RoaPublish(at=2.0, prefix=unclaimed, origin_asn=30))
        feed(service, Announce(at=2.0, prefix=unclaimed, origin_asn=30))
        feed(service, Announce(at=3.0, prefix=unclaimed, origin_asn=40))
        service.poll()
        assert {v.tenant for v in service.verdicts} == {"acme", "globex", None}
        for tenant in (None, "acme", "globex", "nobody"):
            assert service.verdict_json(tenant) == json.dumps(
                service.verdict_payloads(tenant), sort_keys=True
            )

    def test_health_payload(self, lab, probes):
        service = service_for(lab, probes)
        service.register("acme", lab.target_prefix(50), 50)
        service.ingest_line("{broken")
        health = service.health()
        assert health["status"] == "ok"
        assert "shards" not in health
        assert health["tenants"] == 1
        assert health["roas"] == 1
        assert health["events"]["malformed"] == 1
        assert health["uptime_s"] >= 0.0

    def test_confirmed_verdicts_constant(self):
        assert CONFIRMED_VERDICTS == {"hijack", "forged-path", "route-leak"}


class TestAutoMitigation:
    def armed(self, lab, probes, **kw):
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        service.register(
            "acme", prefix, 50, auto_mitigate=True,
            deployers=kw.pop("deployers", ()), **kw,
        )
        return service, prefix

    def test_mitigation_restores_coverage(self, lab, probes):
        service, prefix = self.armed(lab, probes)
        sub = next(iter(prefix.subnets()))
        feed(service, Announce(at=0.0, prefix=prefix, origin_asn=50))
        feed(service, Announce(at=1.0, prefix=sub, origin_asn=60))
        service.poll()
        assert len(service.mitigations) == 1
        record = service.mitigations[0]
        assert record.prefix == str(sub)
        assert len(record.announced) == 2
        assert record.coverage_after > record.coverage_before
        assert record.coverage_after == 1.0

    def test_mitigation_publishes_roas_for_more_specifics(self, lab, probes):
        service, prefix = self.armed(lab, probes)
        sub = next(iter(prefix.subnets()))
        feed(service, Announce(at=0.0, prefix=sub, origin_asn=60))
        service.poll()
        # 1 registration ROA + 2 deaggregation ROAs.
        assert len(service.replayer.authority) == 3

    def test_mitigation_fires_once_per_attack(self, lab, probes):
        service, prefix = self.armed(lab, probes)
        sub = next(iter(prefix.subnets()))
        feed(service, Announce(at=0.0, prefix=sub, origin_asn=60))
        service.poll()
        mitigated = len(service.mitigations)
        # The same conflict re-announced must not re-mitigate.
        feed(service, Announce(at=5.0, prefix=sub, origin_asn=60))
        service.poll()
        assert len(service.mitigations) == mitigated

    def test_defense_activate_emitted_for_deployers(self, lab, probes):
        service, prefix = self.armed(lab, probes, deployers=(30,))
        sub = next(iter(prefix.subnets()))
        feed(service, Announce(at=0.0, prefix=sub, origin_asn=60))
        service.poll()
        assert service.mitigations[0].deployers == (30,)
        assert 30 in service.replayer.defense.strategy.deployers

    def test_no_mitigation_without_arming(self, lab, probes):
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        service.register("acme", prefix, 50)  # auto_mitigate=False
        sub = next(iter(prefix.subnets()))
        feed(service, Announce(at=0.0, prefix=sub, origin_asn=60))
        fresh = service.poll()
        assert [v.confirmed for v in fresh] == [True]
        assert service.mitigations == []

    def test_mitigation_record_serializes(self, lab, probes):
        service, prefix = self.armed(lab, probes)
        sub = next(iter(prefix.subnets()))
        feed(service, Announce(at=0.0, prefix=sub, origin_asn=60))
        service.poll()
        payload = json.loads(json.dumps(service.mitigation_payloads()))
        assert payload[0]["tenant"] == "acme"
        assert payload[0]["verdict"] == "hijack"
        assert len(payload[0]["announced"]) == 2


def per_node_coverage(service, announced, prefix, origin_asn):
    """``victim_coverage`` node by node over the ledgers of the
    *announced* prefixes: most-specific live ledger first, falling
    through to the next covering one where a ledger has no route."""
    ledgers = [(stored, service.replayer.ledger(stored)) for stored in announced]
    live = [
        (stored, ledger)
        for stored, ledger in ledgers
        if ledger is not None and ledger.state is not None
    ]
    if prefix.length < 32:
        samples = [half.first_address() for half in prefix.subnets()]
    else:
        samples = [prefix.first_address()]
    node_count = len(service.lab.view)
    reached = 0
    for address in samples:
        covering = sorted(
            (item for item in live if item[0].contains_address(address)),
            key=lambda item: -item[0].length,
        )
        for node in range(node_count):
            for _stored, ledger in covering:
                origin_node = ledger.state.origin_of[node]
                if origin_node == -1:
                    continue
                reached += ledger.origin_asns().get(origin_node) == origin_asn
                break
    return reached / (node_count * len(samples))


class TestVictimCoverage:
    @pytest.mark.parametrize("backend", ["reference", "array"])
    def test_matches_the_per_node_model(self, mini_graph, probes, backend):
        lab = HijackLab(mini_graph, seed=1, backend=backend)
        service = service_for(lab, probes)
        prefix = lab.target_prefix(50)
        sub = next(iter(prefix.subnets()))
        service.register("acme", prefix, 50)
        # AS20 drops the INVALID more-specific, so the nodes behind it
        # have no route for it and fall back to the covering prefix.
        feed(service, DefenseActivate(at=0.0, deployer_asns=(20,)))
        feed(service, Announce(at=0.0, prefix=prefix, origin_asn=50))
        feed(service, Announce(at=1.0, prefix=sub, origin_asn=60))
        service.poll()
        routes = service.replayer.ledger(sub).state.origin_of
        assert 0 < sum(origin == -1 for origin in routes) < len(lab.view)
        quarter = next(iter(sub.subnets()))
        for query in (prefix, sub, quarter, p("10.0.0.0/8")):
            for origin_asn in (50, 60, 70):
                assert service.victim_coverage(query, origin_asn) == (
                    per_node_coverage(service, (prefix, sub), query, origin_asn)
                )
        assert 0 < service.victim_coverage(prefix, 50) < 1


class TestServiceParity:
    def test_verdicts_equal_the_offline_monitor(self, lab, probes):
        """The service's alarms are the offline replayer's, in order and
        in full, event-count latency included."""
        service = service_for(lab, probes)
        offline = StreamReplayer(
            lab,
            detector=HijackDetector(
                probes,
                neighbors=NeighborRegistry.from_graph(lab.graph),
                relationships=lab.graph,
            ),
        )
        for target in (50, 70):
            prefix = lab.target_prefix(target)
            service.register("acme", prefix, target)
            offline.submit(RoaPublish(at=0.0, prefix=prefix, origin_asn=target))
        for target, attacker in ((50, 60), (70, 80)):
            prefix = lab.target_prefix(target)
            for event in (
                Announce(at=0.0, prefix=prefix, origin_asn=target),
                Announce(at=1.0, prefix=prefix, origin_asn=attacker),
            ):
                feed(service, event)
                offline.submit(event)
        service.poll()
        alarms = offline.finish().monitor.alarms
        assert len(alarms) == 2
        assert [v.alarm.as_dict() for v in service.verdicts] == [
            alarm.as_dict() for alarm in alarms
        ]
