"""Hijack scenarios and their outcomes.

A scenario names the players, the announced bogus prefix, and — new with
the ARTEMIS-grade taxonomy — the *claimed AS path*. The paper's primary
workload is the **origin hijack** — the attacker announces exactly the
target's prefix, and routers choose between two origins for the same
NLRI. The **sub-prefix hijack** (mentioned throughout Sections VI–VIII)
has the attacker announce a more-specific slice; it propagates as a
fresh prefix with no legitimate competitor and steals traffic via
longest-prefix match, which is why only validation-based defenses can
stop it.

The taxonomy adds two orthogonal axes (see ``docs/attacks.md``):

* the **prefix axis** (:class:`HijackKind`) gains ``SQUAT`` — the
  attacker announces allocated-but-unrouted space — and ``ROUTE_LEAK``
  — the attacker re-exports a legitimately learned route in violation
  of valley-free export policy (no forged data at all);
* the **path axis** (:class:`PathKind`) says what AS path the bogus
  announcement *claims*: ``TYPE_0`` forges only the origin (the
  classic MOAS event), ``TYPE_1`` prepends the real origin behind the
  attacker (forged first hop — the cell ROV provably cannot catch),
  ``TYPE_N`` forges a path of depth N, and ``TYPE_U`` replays an
  existing path completely unmodified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.prefixes.prefix import Prefix

__all__ = [
    "AttackOutcome",
    "HijackKind",
    "HijackScenario",
    "PathKind",
    "synthetic_forged_path",
]

#: First ASN used for fabricated intermediate hops in deep type-N paths
#: (the private-use range — guaranteed absent from generated topologies).
SYNTHETIC_ASN_BASE = 64512


class HijackKind(enum.Enum):
    ORIGIN = "origin"
    SUBPREFIX = "subprefix"
    SQUAT = "squat"
    ROUTE_LEAK = "route-leak"


class PathKind(enum.Enum):
    """What AS path the bogus announcement claims (ARTEMIS's type axis)."""

    TYPE_0 = "type-0"  #: forged origin only — the classic MOAS hijack
    TYPE_1 = "type-1"  #: attacker claims adjacency to the legitimate origin
    TYPE_N = "type-n"  #: forged path of depth N behind the attacker
    TYPE_U = "type-u"  #: existing path replayed unmodified


def synthetic_forged_path(
    attacker_asn: int, target_asn: int, depth: int
) -> tuple[int, ...]:
    """A depth-*depth* forged path padded with private-use ASNs.

    ``depth=1`` is exactly the type-1 path ``(attacker, target)``;
    deeper paths insert fabricated hops ``64512, 64513, …`` between the
    attacker and the claimed origin.
    """
    if depth < 1:
        raise ValueError(f"forged path depth must be >= 1, got {depth}")
    hops = tuple(SYNTHETIC_ASN_BASE + i for i in range(depth - 1))
    return (attacker_asn, *hops, target_asn)


@dataclass(frozen=True)
class HijackScenario:
    """One attack: *attacker_asn* announces *prefix* owned by *target_asn*.

    ``path_kind`` and ``forged_path`` default to the type-0 origin forgery
    so every pre-taxonomy scenario — including pickled sweep cache keys —
    hashes and compares exactly as before.
    """

    target_asn: int
    attacker_asn: int
    prefix: Prefix
    kind: HijackKind = HijackKind.ORIGIN
    path_kind: PathKind = PathKind.TYPE_0
    forged_path: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.target_asn == self.attacker_asn:
            raise ValueError("attacker and target must differ")
        if not isinstance(self.forged_path, tuple):
            object.__setattr__(self, "forged_path", tuple(self.forged_path))
        if self.kind is HijackKind.ROUTE_LEAK:
            if self.forged_path:
                raise ValueError(
                    "a route leak re-exports a real path; forged_path must be empty"
                )
            if self.path_kind not in (PathKind.TYPE_0, PathKind.TYPE_U):
                raise ValueError(
                    "a route leak carries the unmodified learned path; "
                    f"path_kind {self.path_kind.value} is contradictory"
                )
            # Normalize: the leaked path is genuine, i.e. type-U.
            object.__setattr__(self, "path_kind", PathKind.TYPE_U)
            return
        if self.path_kind is PathKind.TYPE_1 and not self.forged_path:
            # The canonical forged first hop: attacker claims to neighbor
            # the legitimate origin.
            object.__setattr__(
                self, "forged_path", (self.attacker_asn, self.target_asn)
            )
        if self.path_kind in (PathKind.TYPE_0, PathKind.TYPE_U):
            if self.forged_path:
                raise ValueError(
                    f"path_kind {self.path_kind.value} forges no path; "
                    "forged_path must be empty"
                )
            return
        # TYPE_1 / TYPE_N: the forged path must be a plausible claim.
        if len(self.forged_path) < 2:
            raise ValueError(
                f"path_kind {self.path_kind.value} needs a forged path of "
                f"depth >= 1 (attacker plus at least the claimed origin), "
                f"got {self.forged_path!r}"
            )
        if self.forged_path[0] != self.attacker_asn:
            raise ValueError(
                "the attacker must appear first in its own forged path: "
                f"expected AS{self.attacker_asn} at forged_path[0], "
                f"got {self.forged_path!r}"
            )
        if self.forged_path[-1] != self.target_asn:
            raise ValueError(
                "a forged path must claim the legitimate origin last: "
                f"expected AS{self.target_asn} at forged_path[-1], "
                f"got {self.forged_path!r}"
            )
        if self.path_kind is PathKind.TYPE_1 and len(self.forged_path) != 2:
            raise ValueError(
                "type-1 forges exactly the first hop "
                f"(attacker, origin); got depth {len(self.forged_path) - 1}"
            )

    # -- derived path semantics -------------------------------------------

    @property
    def forged_depth(self) -> int:
        """Forged hops between the attacker and the claimed origin
        (0 for type-0/type-U — nothing behind the attacker is forged)."""
        return max(0, len(self.forged_path) - 1)

    @property
    def static_claimed_path(self) -> tuple[int, ...] | None:
        """The claimed AS path when it does not depend on routing state.

        Returns the path attribute of the bogus announcement, claimed
        origin **last**. ``None`` means the claim is *dynamic* — a type-U
        replay or a route leak reuses whatever path the attacker actually
        learned, which only :meth:`HijackLab.claimed_path` can resolve.
        """
        if self.path_kind in (PathKind.TYPE_1, PathKind.TYPE_N):
            return self.forged_path
        if self.path_kind is PathKind.TYPE_0:
            return (self.attacker_asn,)
        # TYPE_U: squatted space has no existing route to replay — the
        # "unmodified" announcement degenerates to an honest origination
        # by the attacker (ARTEMIS files most squatting under type-U).
        if self.kind is HijackKind.SQUAT:
            return (self.attacker_asn,)
        return None


@dataclass(frozen=True)
class AttackOutcome:
    """Result of simulating one scenario.

    ``polluted_asns`` holds every AS whose RIB ends up pointing at the
    attacker (the attacker itself excluded). ``address_fraction`` is the
    share of allocated address space originated by polluted ASes — the
    paper's "% of the internet address space" headline metric — and is
    ``None`` when the lab has no address plan. ``claimed_path`` is the
    AS path the bogus announcement carried (claimed origin last);
    ``None`` means the attack never launched — a type-U replay or leak
    by an attacker that had no route to reuse.
    """

    scenario: HijackScenario
    polluted_asns: frozenset[int]
    blocked_asns: frozenset[int]
    address_fraction: float | None = None
    claimed_path: tuple[int, ...] | None = None

    @property
    def pollution_count(self) -> int:
        return len(self.polluted_asns)

    def polluted_within(self, asns: frozenset[int]) -> int:
        """Polluted count restricted to a region (Section VII's metric)."""
        return len(self.polluted_asns & asns)
