"""The routing-policy model from Section III of the paper.

Every behavioural rule the paper's simulator enforces is encoded here, in
one place, for the fast routing engine (the oracle's reference flood
re-derives the same rules independently, see :mod:`repro.oracle.reference`):

* **MESSAGE PRIORITY** — LOCAL_PREF orders customer > peer > provider
  routes; within a class, shorter AS paths win; on an exact tie the RIB
  keeps the incumbent ("the new announcement is accepted only if it has a
  shorter path length").
* **Tier-1 exception** — "Tier-1 routers always accept shortest path":
  tier-1 ASes compare path length first, ignoring LOCAL_PREF class, and
  still keep the incumbent on a length tie. This single rule produces the
  paper's Section VI blind-spot example (AS6450's bogus customer routes
  cannot displace equal-length legitimate peer routes at any tier-1).
* **PROPAGATION POLICY** — valley-free export: own/customer routes go to
  everyone; peer and provider routes go to customers only.

The attack model follows the paper's announce-only RIB: the legitimate
route converges first, then the hijack propagates and replaces RIB entries
only where *strictly* preferred. Routes are never withdrawn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.relationships import RouteClass

__all__ = ["PolicyConfig", "prefers"]


@dataclass(frozen=True)
class PolicyConfig:
    """Tunable policy switches (defaults = the paper's model).

    ``tier1_shortest_path``
        Apply the tier-1 exception. Turning it off is the ABL-T1 ablation:
        tier-1s then rank routes like everyone else, which (as the paper
        hints) would let tier-1 probes detect attacks they otherwise miss.

    Section IV's defensive stub filter is a defense, not a policy switch:
    see :attr:`repro.defense.deployment.Defense.stub_filter`.
    """

    tier1_shortest_path: bool = True


def prefers(
    is_tier1: bool,
    new_class: RouteClass,
    new_length: int,
    old_class: RouteClass,
    old_length: int,
    *,
    tier1_shortest_path: bool = True,
) -> bool:
    """True if the new route *strictly* beats the incumbent.

    Ties always keep the incumbent, which is how announcement order
    (legitimate first, hijack second) decides the paper's contested cases.
    """
    if is_tier1 and tier1_shortest_path:
        return new_length < old_length
    if new_class != old_class:
        return new_class < old_class
    return new_length < old_length

