"""The always-on multi-tenant hijack-monitoring service.

The operational layer the ROADMAP's north star asks for: the offline
replay/monitor machinery (:mod:`repro.stream`) productionized into a
long-running daemon in the style of ARTEMIS's detection / mitigation /
monitoring microservice split. Tenants register the prefixes they
originate (:mod:`~repro.service.tenants`), every event lands on one
replayer+monitor pipeline (:mod:`~repro.service.shards`), a prefix trie
attributes its alarms to tenants, verdicts and per-tenant latency stats
are served over a stdlib-asyncio JSON API (:mod:`~repro.service.api`),
and CONFIRMED verdicts can trigger reactive DefenseActivate +
deaggregation events fed back into the stream
(:mod:`~repro.service.daemon`). See docs/service.md.
"""

from repro.service.api import ServiceDaemon
from repro.service.daemon import (
    CONFIRMED_VERDICTS,
    MonitorService,
)
from repro.service.shards import ShardPlane
from repro.service.tenants import LatencyStats, TenantRegistration, TenantRegistry

__all__ = [
    "CONFIRMED_VERDICTS",
    "LatencyStats",
    "MonitorService",
    "ServiceDaemon",
    "ShardPlane",
    "TenantRegistration",
    "TenantRegistry",
]
