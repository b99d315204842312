"""The deployed defense: who blocks which bogus announcements.

A :class:`Defense` bundles the three blocking mechanisms the paper
evaluates and turns them into the inputs of the routing engine and of
the reference flood (a blocked-node set and a first-hop flag); every
drop decision the lab, the animation and the stream replayer make is its:

* **origin validation** at a set of deploying ASes, which drop what the
  hijack judge (:func:`~repro.detection.taxonomy.classify_observations`)
  indicts on the claimed path: INVALID origins (rule 1) and, with
  published ``neighbors``, forged first hops (rule 2). Unpublished
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

import dataclasses
from dataclasses import dataclass, field

from repro.defense.strategies import DeploymentStrategy, no_deployment
from repro.detection.taxonomy import PathObservation, classify_observations
from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix
from repro.registry.neighbors import NeighborRegistry
from repro.registry.roa import OriginAuthority
from repro.topology.asgraph import ASGraph
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

    Publishing ``neighbors`` arms deployers with ARTEMIS-style
    first-hop verification (the judge's rule 2), the filter that closes
    ROV's type-1 blind spot (see ``docs/attacks.md``).
    """

    strategy: DeploymentStrategy = field(default_factory=no_deployment)
    authority: OriginAuthority | None = None
    manual_filters: tuple[FilterRule, ...] = ()
    stub_filter: bool = False
    neighbors: NeighborRegistry | None = None

    def with_filters(self, *rules: FilterRule) -> "Defense":
        return dataclasses.replace(self, manual_filters=(*self.manual_filters, *rules))

    # -- scenario-level blocking decisions -------------------------------------

    def blocking_asns(
        self,
        prefix: Prefix,
        origin_asn: int,
        *,
        claimed_path: tuple[int, ...] | None = None,
    ) -> frozenset[int]:
        """Every AS that drops the announcement for (*prefix*, *origin*).

        The judge sees the *claimed* path (claimed origin last) when one
        is given — a type-1/type-N forgery names the legitimate origin
        precisely so ROV validates it; without a path the announcer *is*
        the claimed origin, the pre-taxonomy behavior.
        """
        tail = claimed_path or (origin_asn,)
        blockers = {
            rule.filtering_asn for rule in self.manual_filters if rule.rejects(prefix, tail[-1])
        }
        if self.strategy.deployers and classify_observations(
            prefix,
            [PathObservation(tail=tail)],
            authority=self.authority,
            neighbors=self.neighbors,
        ) is not None:
            blockers.update(self.strategy.deployers)
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

    def first_hop_filtered(
        self, graph: ASGraph, plan: AddressPlan, prefix: Prefix, announcer_asn: int
    ) -> bool:
        """Do stub filters drop this announcement at the announcer's
        providers? Only a stub's, and never for its own allocated space
        (it can still leak through peer links)."""
        return (
            self.stub_filter
            and not graph.customers(announcer_asn)
            and plan.origin_of(prefix) != announcer_asn
        )
