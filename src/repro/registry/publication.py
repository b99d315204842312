"""Wiring address plans into the registries.

Section VII's playbook hinges on *participation*: only ASes that publish
their route origins can be protected by origin-validating filters and
detectors. This module models that participation level explicitly — a
:class:`PublicationState` tracks who has published and exposes the
resulting :class:`~repro.registry.roa.RoaTable`, the
:class:`~repro.registry.roa.OriginAuthority` the defense layer validates
against. Announcements for unpublished space come back NOT_FOUND and are
therefore *not blockable*, exactly the incremental-deployment reality the
paper studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix
from repro.registry.roa import RoaTable, RouteOriginAuthorization, ValidationState

__all__ = ["PublicationState", "plan_truth_table"]


def plan_truth_table(plan: AddressPlan) -> RoaTable:
    """Ground-truth ROAs for *every* allocation in the plan.

    This is the omniscient oracle (useful for tests and for upper-bound
    experiments); real experiments should go through
    :class:`PublicationState` to model partial participation.
    """
    table = RoaTable()
    for prefix, asn in plan.items():
        table.add(RouteOriginAuthorization(prefix, asn))
    return table


@dataclass
class PublicationState:
    """Which ASes have published route origins, and the resulting registry."""

    plan: AddressPlan
    _published: set[int] = field(default_factory=set)
    _table: RoaTable = field(default_factory=RoaTable)

    @classmethod
    def with_participants(
        cls, plan: AddressPlan, participants: Iterable[int]
    ) -> "PublicationState":
        state = cls(plan=plan)
        for asn in participants:
            state.publish(asn)
        return state

    @classmethod
    def full(cls, plan: AddressPlan) -> "PublicationState":
        """Everyone publishes — the paper's end-state assumption when it
        evaluates blocking (the target's origins must be known)."""
        return cls.with_participants(plan, plan.all_asns())

    # -- participation ---------------------------------------------------------

    def publish(self, asn: int) -> None:
        """AS *asn* publishes authorizations for all its allocations."""
        if asn in self._published:
            return
        self._published.add(asn)
        for prefix in self.plan.prefixes_of(asn):
            self._table.add(RouteOriginAuthorization(prefix, asn))

    def has_published(self, asn: int) -> bool:
        return asn in self._published

    @property
    def participants(self) -> frozenset[int]:
        return frozenset(self._published)

    # -- validation ---------------------------------------------------------------

    def validate(self, prefix: Prefix, origin_asn: int) -> ValidationState:
        return self._table.validate(prefix, origin_asn)

    def table(self) -> RoaTable:
        return self._table
