"""The one hijack judge: path-aware classification over the ARTEMIS grid.

:func:`classify_observations` is the only place a verdict is chosen.
The batch detector (:meth:`HijackDetector.observe
<repro.detection.detector.HijackDetector.observe>`, Fig. 7 included) and
the live monitor (:meth:`HijackDetector.observe_conflict
<repro.detection.detector.HijackDetector.observe_conflict>`) both call
it, so the two paths can only disagree about what they *observe*, never
about how they judge. It decides *who* claims a prefix and *how*: every
observation carries the full claimed AS path, which is what separates
the grid cells ROV can catch from the ones it provably cannot
(``docs/attacks.md`` walks the full matrix):

* **type-0** — the claimed origin itself is unauthorized; the ROA check
  catches it (rule 1).
* **type-1** — the claimed origin is valid but the path's last hop
  names an AS the origin never sessions with; only published neighbor
  sets (:class:`~repro.registry.neighbors.NeighborRegistry`) catch it
  (rule 2).
* **type-N** — deeper forgeries may use only real first hops; full
  topology knowledge can still refute a *nonexistent link* anywhere in
  the claim (rule 3) — and a forgery spliced entirely from real links
  evades even that (the BGPsec-shaped residue).
* **route leak** — every link is real and the origin genuine; the
  violation is the *export*. A path whose head learned the route from a
  provider or peer must never propagate beyond the head's customer
  cone, so a witness outside that cone is proof of a leak (rule 4).
* **type-U** — an unmodified replay is indistinguishable from the real
  announcement by content; it is caught (as an apparent leak) only when
  its *propagation* violates the claimed path's export policy.

Rules are checked in that order — first proof wins — then the verdict
falls back to origin-set logic (anycast vs unverifiable vs
nothing-to-judge). An origin-only MOAS conflict is the case where every
observation is a single-hop tail ``(origin,)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.attacks.scenario import HijackKind, PathKind
from repro.detection.moas import MoasReport, MoasVerdict
from repro.prefixes.prefix import Prefix
from repro.registry.neighbors import NeighborRegistry
from repro.registry.roa import OriginAuthority, ValidationState
from repro.topology.asgraph import ASGraph
from repro.topology.classify import customer_cone
from repro.topology.relationships import Relationship

__all__ = [
    "PathObservation",
    "classify_observations",
    "grid_cells",
]


@dataclass(frozen=True)
class PathObservation:
    """One distinct claimed path seen for a prefix, with its witnesses.

    ``tail`` is the AS path attribute as received — claimed origin
    **last**; for an unmodified (type-U) replay the replaying attacker
    does not appear in it at all, exactly as on the wire. ``witnesses``
    are the probe ASes whose selected route currently carries this
    claim (used by the leak rule: *where* a real path showed up is the
    evidence, not the path itself).
    """

    tail: tuple[int, ...]
    witnesses: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.tail:
            raise ValueError("an observation needs a non-empty claimed path")

    @property
    def claimed_origin(self) -> int:
        return self.tail[-1]


def nonexistent_links(
    tail: tuple[int, ...], relationships: ASGraph
) -> tuple[tuple[int, int], ...]:
    """Adjacent pairs in *tail* that are not real links in *relationships*.

    An AS absent from the graph altogether (e.g. a fabricated private-use
    hop) makes every link through it nonexistent.
    """
    bogus: list[tuple[int, int]] = []
    for left, right in zip(tail, tail[1:]):
        if (
            left not in relationships
            or right not in relationships
            or relationships.relationship(left, right) is None
        ):
            bogus.append((left, right))
    return tuple(bogus)


def leak_suspect(tail: tuple[int, ...], relationships: ASGraph) -> bool:
    """Did the path's head learn this route from a provider or peer?

    Such a route must only be exported to the head's customers —
    valley-free export — so its appearance outside the head's customer
    cone proves a leak. A single-AS tail (the origin's own announcement)
    can never be a leak suspect.
    """
    if len(tail) < 2:
        return False
    head, learned_from = tail[0], tail[1]
    if head not in relationships or learned_from not in relationships:
        return False
    relation = relationships.relationship(head, learned_from)
    return relation in (Relationship.PROVIDER, Relationship.PEER)


def classify_observations(
    prefix: Prefix,
    observations: Sequence[PathObservation],
    *,
    authority: OriginAuthority | None = None,
    neighbors: NeighborRegistry | None = None,
    relationships: ASGraph | None = None,
) -> MoasReport | None:
    """Judge everything currently observed for *prefix*, path-aware.

    Applies the module's rules in proof order with whatever published
    data is available — ``authority`` (ROAs), ``neighbors`` (declared
    neighbor sets), ``relationships`` (full topology knowledge: link
    verification and leak detection). Returns ``None`` when there is
    nothing to judge (no observations, or a single claimed origin with
    no proof of wrongdoing).
    """
    observations = list(observations)
    if not observations:
        return None
    origins = tuple(sorted({obs.claimed_origin for obs in observations}))

    # Rule 1 — ROA origin validation (catches every type-0 cell and any
    # sub-prefix claim a maxLength-less ROA renders INVALID).
    if authority is not None:
        invalid = tuple(
            origin
            for origin in origins
            if authority.validate(prefix, origin) is ValidationState.INVALID
        )
        if invalid:
            bad = frozenset(invalid)
            return MoasReport(
                prefix=prefix,
                origins=origins,
                verdict=MoasVerdict.HIJACK,
                invalid_origins=invalid,
                culprit_paths=_culprits(
                    observations, lambda obs: obs.claimed_origin in bad
                ),
            )

    # Rule 2 — declared-neighbor first-hop check (the type-1 killer).
    if neighbors is not None:
        forged = _culprits(
            observations, lambda obs: neighbors.first_hop_forged(obs.tail)
        )
        if forged:
            return MoasReport(
                prefix=prefix,
                origins=origins,
                verdict=MoasVerdict.FORGED_PATH,
                invalid_origins=(),
                culprit_paths=forged,
            )

    if relationships is not None:
        # Rule 3 — link verification over the whole claim.
        impossible = _culprits(
            observations,
            lambda obs: bool(nonexistent_links(obs.tail, relationships)),
        )
        if impossible:
            return MoasReport(
                prefix=prefix,
                origins=origins,
                verdict=MoasVerdict.FORGED_PATH,
                invalid_origins=(),
                culprit_paths=impossible,
            )
        # Rule 4 — valley-free export: a provider/peer-learned path seen
        # outside its head's customer cone was leaked.
        leaked = _culprits(
            observations,
            lambda obs: leak_suspect(obs.tail, relationships)
            and bool(
                set(obs.witnesses) - customer_cone(relationships, obs.tail[0])
            ),
        )
        if leaked:
            return MoasReport(
                prefix=prefix,
                origins=origins,
                verdict=MoasVerdict.ROUTE_LEAK,
                invalid_origins=(),
                culprit_paths=leaked,
            )

    # No path-level proof: fall back to origin-set logic.
    if len(origins) >= 2:
        if authority is not None and all(
            authority.validate(prefix, origin) is ValidationState.VALID
            for origin in origins
        ):
            verdict = MoasVerdict.LEGITIMATE_ANYCAST
        else:
            verdict = MoasVerdict.UNVERIFIABLE
        return MoasReport(
            prefix=prefix, origins=origins, verdict=verdict, invalid_origins=()
        )
    return None


def _culprits(
    observations: Iterable[PathObservation], predicate
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        sorted({obs.tail for obs in observations if predicate(obs)})
    )


def grid_cells() -> tuple[tuple[HijackKind, PathKind], ...]:
    """The 13 cells of the conformance grid, in table order: every
    (prefix axis × path axis) combination plus the route-leak row."""
    cells = [
        (kind, path_kind)
        for kind in (HijackKind.ORIGIN, HijackKind.SUBPREFIX, HijackKind.SQUAT)
        for path_kind in PathKind
    ]
    cells.append((HijackKind.ROUTE_LEAK, PathKind.TYPE_U))
    return tuple(cells)
