"""Business relationships between autonomous systems.

The simulator follows the classic Gao–Rexford model the paper uses: each
inter-AS link is a *provider→customer*, *peer↔peer* or *sibling↔sibling*
relationship, and both route preference (LOCAL_PREF) and export policy
(valley-free propagation) are functions of these relationship types.
"""

from __future__ import annotations

import enum

__all__ = ["Relationship", "RouteClass"]


class Relationship(enum.Enum):
    """The relationship an AS has *with a specific neighbor*.

    ``CUSTOMER`` means "this neighbor is my customer" — i.e. the neighbor
    pays me for transit. The four values are what the routing policy keys
    on; a link is stored from both endpoints' point of view (one side's
    CUSTOMER is the other's PROVIDER; PEER and SIBLING are symmetric).
    """

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"
    SIBLING = "sibling"


class RouteClass(enum.IntEnum):
    """LOCAL_PREF class of a route, from the perspective of the AS holding it.

    Ordered by preference (paper, Section III: "customers are preferred over
    peers, and peers are preferred over transit providers"). Smaller is
    better so tuples sort naturally. ``ORIGIN`` marks a self-originated
    route, which beats everything.
    """

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3
