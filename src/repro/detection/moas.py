"""MOAS (Multiple-Origin AS) analysis: hijack alarms vs legitimate anycast.

Control-plane detectors (PHAS and its descendants, which the paper builds
on) fundamentally work by flagging *origin changes and conflicts*. The
hard part is that Multiple-Origin-AS announcements are often legitimate —
anycast services, multi-org prefixes, provider static routes — so a naive
MOAS alarm drowns operators in false positives, while suppressing MOAS
entirely misses real hijacks. The paper's prescription applies here too:
published route-origin data (ROVER/RPKI lets one prefix authorize several
origins) cleanly separates the two cases.

:func:`classify_moas` implements the decision procedure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.prefixes.prefix import Prefix
from repro.registry.roa import OriginAuthority, ValidationState

__all__ = ["MoasVerdict", "MoasReport", "classify_moas"]


class MoasVerdict(enum.Enum):
    LEGITIMATE_ANYCAST = "legitimate-anycast"  # all origins authorized
    HIJACK = "hijack"  # some origin is INVALID
    UNVERIFIABLE = "unverifiable"  # no published data: alarm, can't decide
    FORGED_PATH = "forged-path"  # valid origin behind an impossible path
    ROUTE_LEAK = "route-leak"  # real route re-exported against policy


@dataclass(frozen=True)
class MoasReport:
    """Classification of one observed origin conflict.

    ``culprit_paths`` (path-aware classification only — see
    :mod:`repro.detection.taxonomy`) holds the observed claimed paths the
    verdict indicts, claimed origin last; origin-only classification
    leaves it empty.
    """

    prefix: Prefix
    origins: tuple[int, ...]
    verdict: MoasVerdict
    invalid_origins: tuple[int, ...]
    culprit_paths: tuple[tuple[int, ...], ...] = ()

    @property
    def alarm(self) -> bool:
        """Should the detector page an operator? Hijacks always; an
        unverifiable conflict too (better noisy than blind) — which is the
        operational pain publishing makes go away."""
        return self.verdict is not MoasVerdict.LEGITIMATE_ANYCAST


def classify_moas(
    authority: OriginAuthority | None,
    prefix: Prefix,
    origins: tuple[int, ...] | list[int],
) -> MoasReport:
    """Judge an observed multi-origin conflict against published origins.

    The origin-only judgement; the path-aware one (forged first hops,
    impossible links, route leaks) is
    :func:`repro.detection.taxonomy.classify_observations`.
    """
    origins = tuple(sorted(set(origins)))
    if len(origins) < 2:
        raise ValueError("a MOAS conflict needs at least two origins")
    if authority is None:
        return MoasReport(
            prefix=prefix, origins=origins,
            verdict=MoasVerdict.UNVERIFIABLE, invalid_origins=(),
        )
    verdicts = {
        origin: authority.validate(prefix, origin) for origin in origins
    }
    invalid = tuple(
        origin
        for origin, verdict in verdicts.items()
        if verdict is ValidationState.INVALID
    )
    if invalid:
        return MoasReport(
            prefix=prefix, origins=origins,
            verdict=MoasVerdict.HIJACK, invalid_origins=invalid,
        )
    if all(v is ValidationState.VALID for v in verdicts.values()):
        return MoasReport(
            prefix=prefix, origins=origins,
            verdict=MoasVerdict.LEGITIMATE_ANYCAST, invalid_origins=(),
        )
    return MoasReport(
        prefix=prefix, origins=origins,
        verdict=MoasVerdict.UNVERIFIABLE, invalid_origins=(),
    )
