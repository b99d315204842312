"""Historical origin data: the PGBGP / ARGUS-style alternative to registries.

Several systems the paper surveys do not use authenticated publication at
all: PGBGP "cautiously adopts" routes that disagree with history, and
detectors like ARGUS compare announcements against previously observed
origins. The paper warns about the catch: "detectors that use historical
data can issue false alerts due to changing AS connectivity" (Section VI)
— history covers *everything* it has seen (no NOT_FOUND gaps like a
partially-populated RPKI), but it silently goes stale when address blocks
legitimately change hands.

:class:`HistoricalAuthority` implements that trade-off as an
:class:`~repro.registry.roa.OriginAuthority`: it is bootstrapped from
observed announcements (or a full address plan, modeling a long-running
collector), judges announcements against its snapshot, and can be aged
forward with new observations. It drives the stale-history study in
:mod:`repro.core.churn`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix
from repro.prefixes.trie import PrefixTrie
from repro.registry.roa import ValidationState

__all__ = ["HistoricalAuthority"]


@dataclass
class HistoricalAuthority:
    """Origin verdicts from an observation history instead of a registry."""

    _observed: PrefixTrie[set[int]] = field(default_factory=PrefixTrie)

    @classmethod
    def from_plan(cls, plan: AddressPlan) -> "HistoricalAuthority":
        """Bootstrap from a full routing table snapshot — a collector that
        has watched the converged internet (what PGBGP's history window
        holds in steady state)."""
        authority = cls()
        for prefix, asn in plan.items():
            authority.observe(prefix, asn)
        return authority

    # -- learning ------------------------------------------------------------

    def observe(self, prefix: Prefix, origin_asn: int) -> None:
        """Record a (prefix, origin) pair as seen in the wild.

        History only ever *adds* — a collector cannot tell a withdrawn
        allocation from a quiet one, which is precisely why stale entries
        accumulate.
        """
        origins = self._observed.get(prefix)
        if origins is None:
            origins = set()
            self._observed.insert(prefix, origins)
        origins.add(origin_asn)

    def forget(self, prefix: Prefix, origin_asn: int) -> None:
        """Age an origin out of the history (an operator-curated cleanup)."""
        origins = self._observed.get(prefix)
        if not origins or origin_asn not in origins:
            raise KeyError(f"{prefix} was never observed from AS{origin_asn}")
        origins.discard(origin_asn)
        if not origins:
            self._observed.remove(prefix)

    def known_origins(self, prefix: Prefix) -> frozenset[int]:
        """Every origin history has seen for exactly *prefix*."""
        origins = self._observed.get(prefix)
        return frozenset(origins) if origins else frozenset()

    # -- judging -----------------------------------------------------------------

    def validate(self, prefix: Prefix, origin_asn: int) -> ValidationState:
        """History's verdict: a known (covering) origin is VALID; an origin
        that contradicts history for covered space is INVALID; space never
        observed is NOT_FOUND."""
        covered = False
        for _covering_prefix, origins in self._observed.covering(prefix):
            covered = True
            if origin_asn in origins:
                return ValidationState.VALID
        exact = self._observed.get(prefix)
        if exact is not None and origin_asn in exact:
            return ValidationState.VALID
        return ValidationState.INVALID if covered else ValidationState.NOT_FOUND

    def __len__(self) -> int:
        return sum(1 for _ in self._observed.items())
