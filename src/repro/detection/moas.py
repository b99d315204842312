"""The verdict vocabulary: MOAS conflicts, hijacks and legitimate anycast.

Control-plane detectors (PHAS and its descendants, which the paper builds
on) fundamentally work by flagging *origin changes and conflicts*. The
hard part is that Multiple-Origin-AS announcements are often legitimate —
anycast services, multi-org prefixes, provider static routes — so a naive
MOAS alarm drowns operators in false positives, while suppressing MOAS
entirely misses real hijacks. The paper's prescription applies here too:
published route-origin data (ROVER/RPKI lets one prefix authorize several
origins) cleanly separates the two cases.

This module holds only the vocabulary — :class:`MoasVerdict` and the
:class:`MoasReport` a judgement returns. There is one judge,
:func:`repro.detection.taxonomy.classify_observations`; an origin-only
conflict is the case where every claimed path is a single hop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.prefixes.prefix import Prefix

__all__ = ["MoasVerdict", "MoasReport"]


class MoasVerdict(enum.Enum):
    LEGITIMATE_ANYCAST = "legitimate-anycast"  # all origins authorized
    HIJACK = "hijack"  # some origin is INVALID
    UNVERIFIABLE = "unverifiable"  # no published data: alarm, can't decide
    FORGED_PATH = "forged-path"  # valid origin behind an impossible path
    ROUTE_LEAK = "route-leak"  # real route re-exported against policy


@dataclass(frozen=True)
class MoasReport:
    """The judgement of everything observed for one prefix.

    ``culprit_paths`` holds the observed claimed paths the verdict
    indicts, claimed origin last; it is empty when no single claim is to
    blame (anycast, or an unverifiable conflict).
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
