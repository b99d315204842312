"""The monitoring service core: registrations, verdicts, mitigation.

:class:`MonitorService` is the synchronous heart of the daemon — the
asyncio front-end (:mod:`repro.service.api`) is a thin shell around it,
so every behaviour here is testable without an event loop, and the
offline :class:`~repro.stream.monitor.OnlineMonitor` parity the
integration suite pins holds by construction (one replayer, the same
detector, the same events).

The loop it implements is ingest → replay → verdict → mitigation:

1. events enter through :meth:`ingest_line` (the HTTP handler and the
   feed task both call it) and land on the one replayer of the
   :class:`~repro.service.shards.ShardPlane`;
2. :meth:`poll` flushes the replayer, drains freshly raised alarms, and
   attributes each to the tenants whose registrations the alarmed NLRI
   concerns (covering *and* covered — the sub-prefix case), updating
   per-tenant detection-latency stats;
3. a CONFIRMED verdict (``hijack`` / ``forged-path`` / ``route-leak``)
   against an ``auto_mitigate`` registration fires the reactive hook:
   a ``DefenseActivate`` for the registration's deployers plus
   deaggregation — the tenant's origin announces the two more-specific
   halves of the hijacked NLRI (with fresh ROAs, or the response would
   itself be INVALID), which out-compete the bogus route by
   longest-prefix match.

:meth:`victim_coverage` measures the mitigation's effect: the fraction
of routing nodes whose most-specific live route for the contested space
originates from the tenant — before and after, so "measurably restores
the victim's routes" is a number in the record, not a claim.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import eq
from typing import Sequence

from repro.attacks.lab import HijackLab
from repro.detection.probes import ProbeSet
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.prefixes.prefix import Prefix
from repro.registry.roa import RouteOriginAuthorization
from repro.service.shards import ShardPlane
from repro.service.tenants import LatencyStats, TenantRegistration, TenantRegistry
from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    RoaRevoke,
    StreamEvent,
)
from repro.stream.monitor import StreamAlarm

__all__ = [
    "CONFIRMED_VERDICTS",
    "MonitorService",
]

#: Verdicts that arm the reactive hook — the attack cells where the
#: announcement is provably bogus, not merely a MOAS to investigate.
CONFIRMED_VERDICTS = frozenset({"hijack", "forged-path", "route-leak"})


@dataclass(frozen=True)
class ServiceVerdict:
    """One alarm attributed to one tenant (or unclaimed space)."""

    tenant: str | None
    alarm: StreamAlarm

    @property
    def confirmed(self) -> bool:
        return self.alarm.verdict in CONFIRMED_VERDICTS

    @cached_property
    def json_text(self) -> str:
        """:meth:`as_dict` encoded as the API serves it, once: a verdict
        never changes, and every read that lists it would encode it again."""
        return json.dumps(self.as_dict(), sort_keys=True)

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "tenant": self.tenant,
            "confirmed": self.confirmed,
        }
        payload.update(self.alarm.as_dict())
        return payload


@dataclass(frozen=True)
class MitigationRecord:
    """One firing of the auto-mitigation hook and its measured effect."""

    at: float
    tenant: str
    prefix: str
    verdict: str
    deployers: tuple[int, ...]
    announced: tuple[str, ...]
    coverage_before: float
    coverage_after: float

    def as_dict(self) -> dict[str, object]:
        return {
            "at": self.at,
            "tenant": self.tenant,
            "prefix": self.prefix,
            "verdict": self.verdict,
            "deployers": list(self.deployers),
            "announced": list(self.announced),
            "coverage_before": self.coverage_before,
            "coverage_after": self.coverage_after,
        }


class MonitorService:
    """The always-on multi-tenant hijack monitor over one lab topology."""

    def __init__(
        self,
        lab: HijackLab,
        *,
        shards: int = 1,
        probes: ProbeSet | None = None,
        batch_window: float = 0.0,
        queue_limit: int = 64,
        metrics: Metrics | None = None,
    ) -> None:
        # ``shards`` survives only for callers that still pass 1.
        if shards != 1:
            raise ValueError("the service runs one replayer: shards must be 1")
        self.lab = lab
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.registry = TenantRegistry()
        self.plane = ShardPlane(
            lab,
            probes=probes,
            batch_window=batch_window,
            queue_limit=queue_limit,
            metrics=self.metrics,
        )
        self.replayer = self.plane.replayer
        self.verdicts: list[ServiceVerdict] = []
        self._tenant_verdicts: dict[str, list[ServiceVerdict]] = {}
        self.mitigations: list[MitigationRecord] = []
        self._stats: dict[str, LatencyStats] = {}
        self._mitigated: set[tuple[str, Prefix, str]] = set()
        self._started = time.monotonic()

    # -- registration plane ------------------------------------------------

    def register(
        self,
        tenant: str,
        prefix: Prefix | str,
        origin_asn: int,
        *,
        max_length: int | None = None,
        auto_mitigate: bool = False,
        deployers: tuple[int, ...] = (),
    ) -> TenantRegistration:
        """Register a watch and publish the tenant's ROA.

        Re-registering a prefix replaces the tenant's watch and revokes
        the ROA the replaced watch published, unless a live registration
        still publishes that identical ROA.
        """
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        # The ROA's own constructor is the one maxLength rule: a bad bound
        # raises here, before anything is registered or published.
        RouteOriginAuthorization(prefix, origin_asn, max_length)
        view = self.lab.view
        if not view.has_asn(origin_asn):
            raise ValueError(f"unknown origin AS{origin_asn}")
        for deployer in deployers:
            if not view.has_asn(deployer):
                raise ValueError(f"unknown deployer AS{deployer}")
        registration = TenantRegistration(
            tenant=tenant,
            prefix=prefix,
            origin_asn=origin_asn,
            max_length=max_length,
            auto_mitigate=auto_mitigate,
            deployer_asns=tuple(deployers),
        )
        replaced = self.registry.register(registration)
        self.plane.submit(
            RoaPublish(
                at=self.replayer.clock,
                prefix=prefix,
                origin_asn=origin_asn,
                max_length=max_length,
            )
        )
        self.plane.flush()
        if replaced is not None:
            self._revoke_unless_published(replaced)
        self.metrics.count("service.registrations")
        return registration

    def deregister(self, tenant: str, prefix: Prefix | str) -> TenantRegistration:
        """Drop a watch and revoke the ROA it published, unless a live
        registration still publishes that identical ROA."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        registration = self.registry.deregister(tenant, prefix)
        self._revoke_unless_published(registration)
        self.metrics.count("service.deregistrations")
        return registration

    def _revoke_unless_published(self, gone: TenantRegistration) -> None:
        """Revoke the ROA *gone* published unless a live registration
        publishes the identical ROA: the table holds it once, so revoking
        it would drop that registration's too."""
        roa = (gone.prefix, gone.origin_asn, gone.max_length)
        if any(
            (other.prefix, other.origin_asn, other.max_length) == roa
            for other in self.registry.match(gone.prefix)
        ):
            return
        self.plane.submit(
            RoaRevoke(
                at=self.replayer.clock,
                prefix=gone.prefix,
                origin_asn=gone.origin_asn,
                max_length=gone.max_length,
            )
        )
        self.plane.flush()

    # -- ingest ------------------------------------------------------------

    def ingest_line(self, line: str) -> bool:
        return self.plane.submit_line(line)

    # -- the verdict loop --------------------------------------------------

    def poll(self) -> list[ServiceVerdict]:
        """Flush, drain new alarms, attribute them, run auto-mitigation."""
        self.plane.flush()
        fresh: list[ServiceVerdict] = []
        for alarm in self.plane.drain_alarms():
            matched = self.registry.match(alarm.prefix)
            if not matched:
                fresh.append(ServiceVerdict(tenant=None, alarm=alarm))
                continue
            for registration in matched:
                verdict = ServiceVerdict(tenant=registration.tenant, alarm=alarm)
                fresh.append(verdict)
                self._stats.setdefault(
                    registration.tenant, LatencyStats()
                ).add(alarm.latency_time)
                if (
                    registration.auto_mitigate
                    and verdict.confirmed
                    and registration.origin_asn not in alarm.invalid_origins
                ):
                    self._mitigate(registration, alarm)
        self.verdicts.extend(fresh)
        for verdict in fresh:
            if verdict.tenant is not None:
                self._tenant_verdicts.setdefault(verdict.tenant, []).append(verdict)
        if fresh:
            self.metrics.count("service.verdicts", len(fresh))
        return fresh

    def _mitigate(self, registration: TenantRegistration, alarm: StreamAlarm) -> None:
        key = (registration.tenant, alarm.prefix, alarm.verdict)
        if key in self._mitigated:
            return
        self._mitigated.add(key)
        coverage_before = self.victim_coverage(alarm.prefix, registration.origin_asn)
        now = self.replayer.clock
        events: list[StreamEvent] = []
        if registration.deployer_asns:
            events.append(
                DefenseActivate(at=now, deployer_asns=registration.deployer_asns)
            )
        if alarm.prefix.length < 32:
            halves = list(alarm.prefix.subnets())
        else:
            halves = [alarm.prefix]
        announced: list[str] = []
        for half in halves:
            # The deaggregated more-specifics need their own ROAs or the
            # response is INVALID under the tenant's covering ROA and the
            # service would page on its own counter-announcement.
            events.append(
                RoaPublish(at=now, prefix=half, origin_asn=registration.origin_asn)
            )
            events.append(
                Announce(at=now, prefix=half, origin_asn=registration.origin_asn)
            )
            announced.append(str(half))
        for event in events:
            self.plane.submit(event)
        self.plane.flush()
        coverage_after = self.victim_coverage(alarm.prefix, registration.origin_asn)
        self.mitigations.append(
            MitigationRecord(
                at=now,
                tenant=registration.tenant,
                prefix=str(alarm.prefix),
                verdict=alarm.verdict,
                deployers=registration.deployer_asns,
                announced=tuple(announced),
                coverage_before=coverage_before,
                coverage_after=coverage_after,
            )
        )
        self.metrics.count("service.mitigations")

    # -- measurement -------------------------------------------------------

    def victim_coverage(self, prefix: Prefix, origin_asn: int) -> float:
        """Fraction of routing nodes whose traffic for *prefix* reaches
        *origin_asn*, under longest-prefix-match over every live ledger.

        Sampled at one representative address per half of *prefix* (the
        deaggregation granularity), with most-specific-first fall-through:
        a node covered by a more-specific ledger that gives it no route
        falls back to the next covering ledger, as a FIB would.
        """
        if prefix.length < 32:
            samples = [half.first_address() for half in prefix.subnets()]
        else:
            samples = [prefix.first_address()]
        node_count = len(self.lab.view)
        total = node_count * len(samples)
        if total == 0:
            return 0.0
        reached = 0
        for address in samples:
            # Longest match first: a ledger answers for the nodes it gives
            # a route that no more-specific ledger answered for.
            nodes: Sequence[int] = range(node_count)
            for ledger in self.replayer.covering_ledgers(Prefix.from_host(address, 32)):
                ours = {
                    node
                    for node, asn in ledger.origin_asns().items()
                    if asn == origin_asn
                }
                state = ledger.state
                if len(nodes) == node_count:
                    routes = state.origin_of
                else:
                    routes = list(map(state.origin_at, nodes))
                reached += sum(map(ours.__contains__, routes))
                nodes = list(compress(nodes, map(eq, routes, repeat(-1))))
        return reached / total

    # -- API payloads ------------------------------------------------------

    def health(self) -> dict[str, object]:
        return {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started,
            "clock": self.replayer.clock,
            "probe_set": self.plane.probes.name,
            "tenants": len(self.registry.tenants()),
            "registrations": len(self.registry),
            "roas": len(self.replayer.authority),
            "events": {**self.replayer.counts, "ingested": self.plane.ingested},
            "verdicts": len(self.verdicts),
            "mitigations": len(self.mitigations),
        }

    def verdict_payloads(self, tenant: str | None = None) -> list[dict[str, object]]:
        return [verdict.as_dict() for verdict in self._verdicts_of(tenant)]

    def verdict_json(self, tenant: str | None = None) -> str:
        """:meth:`verdict_payloads` as the JSON array
        ``json.dumps(..., sort_keys=True)`` writes, from each verdict's
        :attr:`~ServiceVerdict.json_text`."""
        return "[" + ", ".join(v.json_text for v in self._verdicts_of(tenant)) + "]"

    def _verdicts_of(self, tenant: str | None) -> list[ServiceVerdict]:
        if tenant is None:
            return self.verdicts
        return self._tenant_verdicts.get(tenant, [])

    def mitigation_payloads(self) -> list[dict[str, object]]:
        return [record.as_dict() for record in self.mitigations]

    def tenant_stats(self, tenant: str) -> dict[str, object]:
        stats = self._stats.get(tenant, LatencyStats())
        return {
            "tenant": tenant,
            "registrations": [
                registration.as_dict()
                for registration in self.registry.for_tenant(tenant)
            ],
            "latency": stats.as_dict(),
            "verdicts": len(self._tenant_verdicts.get(tenant, ())),
        }

    def tenant_payloads(self) -> list[dict[str, object]]:
        return [self.tenant_stats(tenant) for tenant in self.registry.tenants()]

    def metrics_snapshot(self) -> dict[str, object]:
        return dict(self.metrics.snapshot())
