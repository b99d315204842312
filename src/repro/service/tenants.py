"""Tenant registrations and the trie that attributes alarms to them.

A monitoring service is *multi-tenant*: operators register the prefixes
they originate (with the ROA data the paper tells them to publish) and
the service watches the announcement stream on their behalf. The
registry answers the one attribution question the service asks per
alarm: *which registrations does this NLRI concern?* — which is a
trie problem, not a scan problem. A registration for ``203.0.113.0/24``
must match announcements of the /24 itself, of any covering prefix (a
withdrawal-shadowing supernet) **and** of any more-specific carved out
of it, because the sub-prefix hijack — the paper's worst case — arrives
as a brand-new NLRI the tenant never announced.

:class:`LatencyStats` keeps the per-tenant detection-latency aggregates
the JSON API serves (count / mean / p50 / p95 over virtual seconds),
nearest-rank percentiles over every alarm attributed to the tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prefixes.prefix import Prefix
from repro.prefixes.trie import PrefixTrie

__all__ = ["LatencyStats", "TenantRegistration", "TenantRegistry"]


@dataclass(frozen=True)
class TenantRegistration:
    """One (tenant, prefix) watch: who owns the space and how to react.

    ``origin_asn`` is the origin the tenant declares legitimate (the ROA
    the service publishes on registration); ``auto_mitigate`` arms the
    reactive hook — on a CONFIRMED verdict the service emits a
    ``DefenseActivate`` for ``deployer_asns`` and deaggregates the
    hijacked space back into the stream on the tenant's behalf.
    """

    tenant: str
    prefix: Prefix
    origin_asn: int
    max_length: int | None = None
    auto_mitigate: bool = False
    deployer_asns: tuple[int, ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "tenant": self.tenant,
            "prefix": str(self.prefix),
            "origin": self.origin_asn,
            "max_length": self.max_length,
            "auto_mitigate": self.auto_mitigate,
            "deployers": list(self.deployer_asns),
        }


class TenantRegistry:
    """The trie of registrations, keyed by registered prefix.

    Several tenants may register the same prefix (an anycast consortium,
    or simply a test fixture), so each trie slot holds a per-tenant
    mapping. :meth:`match` returns every registration an announced
    prefix concerns: registrations at or above it (``covering``) plus
    registrations strictly under it (``iter_covered`` — the
    supernet-watch case).
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[dict[str, TenantRegistration]] = PrefixTrie()
        # The same registrations by tenant, so per-tenant reads never walk
        # the trie; register and deregister keep the two in step.
        self._by_tenant: dict[str, dict[Prefix, TenantRegistration]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def register(self, registration: TenantRegistration) -> TenantRegistration | None:
        """Add *registration*; returns the tenant's registration for the
        same prefix that it replaces, if any."""
        slot = self._trie.get(registration.prefix)
        if slot is None:
            slot = {}
            self._trie.insert(registration.prefix, slot)
        replaced = slot.get(registration.tenant)
        if replaced is None:
            self._count += 1
        slot[registration.tenant] = registration
        self._by_tenant.setdefault(registration.tenant, {})[
            registration.prefix
        ] = registration
        return replaced

    def deregister(self, tenant: str, prefix: Prefix) -> TenantRegistration:
        slot = self._trie.get(prefix)
        if not slot or tenant not in slot:
            raise KeyError(f"{tenant} has no registration for {prefix}")
        registration = slot.pop(tenant)
        self._count -= 1
        if not slot:
            self._trie.remove(prefix)
        owned = self._by_tenant[tenant]
        del owned[prefix]
        if not owned:
            del self._by_tenant[tenant]
        return registration

    def match(self, prefix: Prefix) -> list[TenantRegistration]:
        """Every registration the announcement of *prefix* concerns."""
        found: list[TenantRegistration] = []
        for _registered, slot in self._trie.covering(prefix):
            found.extend(slot.values())
        for _registered, slot in self._trie.iter_covered(prefix):
            found.extend(slot.values())
        return found

    def registrations(self) -> list[TenantRegistration]:
        return [
            registration
            for _prefix, slot in self._trie.items()
            for registration in slot.values()
        ]

    def tenants(self) -> list[str]:
        return sorted(self._by_tenant)

    def for_tenant(self, tenant: str) -> list[TenantRegistration]:
        """*tenant*'s registrations in trie order: ascending prefix."""
        owned = self._by_tenant.get(tenant, {})
        return [owned[prefix] for prefix in sorted(owned)]


@dataclass
class LatencyStats:
    """Detection-latency aggregates for one tenant (virtual seconds)."""

    samples: list[float] = field(default_factory=list)

    def add(self, latency: float) -> None:
        self.samples.append(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float | None:
        if not self.samples:
            return None
        return sum(self.samples) / len(self.samples)

    def percentile(self, fraction: float) -> float | None:
        """Nearest-rank percentile — no interpolation."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(1, -(-len(ordered) * fraction // 1))  # ceil without math
        return ordered[min(len(ordered), int(rank)) - 1]

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
        }
