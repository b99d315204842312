"""The deployed defense: who blocks which bogus announcements.

A :class:`Defense` bundles the three blocking mechanisms the paper
evaluates and turns them into the inputs of the routing engine and of
the reference flood (a blocked-node set and a first-hop flag):

* **origin validation** at a set of deploying ASes, judged against a
  registry (:class:`~repro.registry.roa.OriginAuthority` — RPKI, ROVER, or
  a plain ROA table). Only INVALID announcements are dropped; unpublished
  (NOT_FOUND) space cannot be protected.
* **manual prefix filters** — Section VII's "build prefix filters" step:
  an individual AS lists allowed origins for specific blocks (e.g. the
  single filter installed at the New-Zealand hub in the paper's
  experiment).
* **defensive stub filters** — Section IV's optimistic scenario: transit
  providers drop bogus announcements arriving directly from their stub
  customers, which reduces the effective attacker pool to transit ASes.

Blocking is *receiver-side*: a blocked AS neither installs nor propagates
the announcement, exactly the "bogus route blocking" of Section V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.defense.strategies import DeploymentStrategy, no_deployment
from repro.prefixes.prefix import Prefix
from repro.registry.neighbors import NeighborRegistry
from repro.registry.roa import OriginAuthority, ValidationState
from repro.topology.view import RoutingView

__all__ = ["FilterRule", "Defense"]


@dataclass(frozen=True)
class FilterRule:
    """A manual prefix filter at one AS: inside *prefix*, only
    *allowed_origins* may originate."""

    filtering_asn: int
    prefix: Prefix
    allowed_origins: frozenset[int]

    def rejects(self, announced: Prefix, origin_asn: int) -> bool:
        return self.prefix.contains(announced) and origin_asn not in self.allowed_origins


@dataclass
class Defense:
    """A complete defensive configuration for hijack experiments.

    ``neighbors`` plus ``path_check=True`` arms deployers with
    ARTEMIS-style first-hop verification: an announcement whose claimed
    path ends in a hop the origin's published neighbor set rules out is
    dropped at every deployer — the filter that closes ROV's type-1
    blind spot (see ``docs/attacks.md``).
    """

    strategy: DeploymentStrategy = field(default_factory=no_deployment)
    authority: OriginAuthority | None = None
    manual_filters: tuple[FilterRule, ...] = ()
    stub_filter: bool = False
    neighbors: NeighborRegistry | None = None
    path_check: bool = False

    def with_filters(self, *rules: FilterRule) -> "Defense":
        return Defense(
            strategy=self.strategy,
            authority=self.authority,
            manual_filters=(*self.manual_filters, *rules),
            stub_filter=self.stub_filter,
            neighbors=self.neighbors,
            path_check=self.path_check,
        )

    # -- scenario-level blocking decisions -------------------------------------

    def is_blockable(self, prefix: Prefix, origin_asn: int) -> bool:
        """Would origin validation drop this announcement at a deployer?"""
        if self.authority is None:
            return False
        return self.authority.validate(prefix, origin_asn) is ValidationState.INVALID

    def blocking_asns(
        self,
        prefix: Prefix,
        origin_asn: int,
        *,
        claimed_path: tuple[int, ...] | None = None,
    ) -> frozenset[int]:
        """Every AS that drops the announcement for (*prefix*, *origin*).

        Validation judges the *claimed* origin when a ``claimed_path``
        (claimed origin last) is given — a type-1/type-N forgery names
        the legitimate origin precisely so ROV validates it; without a
        path the announcer *is* the claimed origin, the pre-taxonomy
        behavior.
        """
        claimed_origin = claimed_path[-1] if claimed_path else origin_asn
        blockers: set[int] = set()
        if self.is_blockable(prefix, claimed_origin):
            blockers.update(self.strategy.deployers)
        if (
            self.path_check
            and self.neighbors is not None
            and claimed_path is not None
            and self.neighbors.first_hop_forged(claimed_path)
        ):
            blockers.update(self.strategy.deployers)
        for rule in self.manual_filters:
            if rule.rejects(prefix, claimed_origin):
                blockers.add(rule.filtering_asn)
        return frozenset(blockers)

    def blocking_nodes(
        self,
        view: RoutingView,
        prefix: Prefix,
        origin_asn: int,
        *,
        claimed_path: tuple[int, ...] | None = None,
    ) -> frozenset[int]:
        """The same set, as routing-node indices for the engine and the
        reference flood."""
        return frozenset(
            view.node_of(asn)
            for asn in self.blocking_asns(
                prefix, origin_asn, claimed_path=claimed_path
            )
            if view.has_asn(asn)
        )
