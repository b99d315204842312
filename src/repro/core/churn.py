"""Stale-history churn analysis: the cost of not publishing route origins.

Section VI: "detectors that use historical data can issue false alerts due
to changing AS connectivity. Once again, it is prudent for ASes to
securely publish their route origins so that detectors can have an
accurate source of data."

This module quantifies that warning. An address block is legitimately
*transferred* to a new AS (merger, sale, re-homing); a defense or detector
still operating on the old history now judges the rightful announcement
INVALID. The study measures both failure modes:

* **detection false positive** — the legitimate announcement raises a
  hijack alert;
* **collateral blackholing** — ASes that *block* on the stale verdict drop
  the legitimate route, cutting reachability to the new owner.

A registry-backed authority that the new owner updates (re-publishing
after the transfer, the Section VII discipline) suffers neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.attacks.lab import HijackLab
from repro.defense.deployment import Defense
from repro.defense.strategies import DeploymentStrategy, no_deployment
from repro.prefixes.prefix import Prefix
from repro.registry.history import HistoricalAuthority
from repro.registry.roa import OriginAuthority, ValidationState
from repro.util.rng import make_rng

__all__ = ["stale_history_study", "sample_transfers"]


@dataclass(frozen=True)
class TransferEvent:
    """A legitimate change of ownership for one allocated block."""

    prefix: Prefix
    old_asn: int
    new_asn: int


@dataclass(frozen=True)
class ChurnImpact:
    """Outcome of announcing transferred space under a stale authority."""

    event: TransferEvent
    verdict: ValidationState
    false_positive: bool
    blackholed_asns: int
    reachable_asns: int

    @property
    def blackholed_fraction(self) -> float:
        total = self.blackholed_asns + self.reachable_asns
        return self.blackholed_asns / total if total else 0.0


def sample_transfers(
    lab: HijackLab, count: int, *, seed: int = 0
) -> list[TransferEvent]:
    """Draw plausible transfer events: blocks moving to another AS in the
    same region (the common merger/re-homing case)."""
    rng = make_rng(seed, "transfers")
    asns = [asn for asn in lab.graph.asns() if lab.plan.prefixes_of(asn)]
    events: list[TransferEvent] = []
    attempts = 0
    while len(events) < count and attempts < count * 20:
        attempts += 1
        old = rng.choice(asns)
        region = lab.graph.region_of(old)
        candidates = [
            asn
            for asn in asns
            if asn != old and lab.graph.region_of(asn) == region
        ] or [asn for asn in asns if asn != old]
        new = rng.choice(candidates)
        if lab.view.node_of(new) == lab.view.node_of(old):
            continue
        events.append(
            TransferEvent(
                prefix=lab.plan.primary_prefix(old), old_asn=old, new_asn=new
            )
        )
    return events


def stale_history_study(
    lab: HijackLab,
    events: Sequence[TransferEvent],
    *,
    blocking_strategy: DeploymentStrategy | None = None,
    authority: OriginAuthority | None = None,
) -> list[ChurnImpact]:
    """Judge each post-transfer legitimate announcement against a stale
    authority and measure alerting plus blocking fallout.

    ``authority`` defaults to a :class:`HistoricalAuthority` bootstrapped
    from the *pre-transfer* plan — the steady-state collector the paper
    warns about. Pass a registry table the new owner has updated to verify
    the published-data path is churn-proof (zero false positives).
    """
    if authority is None:
        authority = HistoricalAuthority.from_plan(lab.plan)
    view = lab.view
    defense = Defense(strategy=blocking_strategy or no_deployment(), authority=authority)
    results: list[ChurnImpact] = []
    for event in events:
        verdict = authority.validate(event.prefix, event.new_asn)
        false_positive = verdict is ValidationState.INVALID
        state = lab.engine.converge(
            view.node_of(event.new_asn),
            blocked=defense.blocking_nodes(view, event.prefix, event.new_asn),
        )
        reachable = sum(
            view.member_count(node)
            for node in range(len(view))
            if state.has_route(node)
        )
        total = sum(view.member_count(node) for node in range(len(view)))
        results.append(
            ChurnImpact(
                event=event,
                verdict=verdict,
                false_positive=false_positive,
                blackholed_asns=total - reachable,
                reachable_asns=reachable,
            )
        )
    return results
