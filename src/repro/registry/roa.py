"""Route-origin authorizations and the validation verdicts.

Both prevention and detection in the paper compare BGP announcements
against "a list of authoritative route origins obtained from a secure
repository such as RPKI and ROVER" (Section V). This module defines the
repository-neutral pieces: the :class:`RouteOriginAuthorization` record,
the three validation verdicts of RFC 6483 (VALID / INVALID / NOT_FOUND)
and the shared origin-validation algorithm every backend uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.prefixes.prefix import Prefix
from repro.prefixes.trie import PrefixTrie

__all__ = [
    "RouteOriginAuthorization",
    "ValidationState",
    "OriginAuthority",
    "RoaTable",
]


class ValidationState(enum.Enum):
    """Origin-validation verdict for an announcement.

    ``NOT_FOUND`` (no covering authorization) is the common case during
    incremental rollout and is deliberately *not* treated as INVALID:
    dropping unknown space would blackhole every non-participant, so
    filters only act on INVALID. This is exactly why the paper's Section
    VII insists that publishing route origins is "a critical step" — an
    unpublished target cannot be protected.
    """

    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "not-found"


@dataclass(frozen=True)
class RouteOriginAuthorization:
    """An authorization: *origin_asn* may announce *prefix* (and its
    sub-prefixes down to *max_length*, RFC 6482's maxLength)."""

    prefix: Prefix
    origin_asn: int
    max_length: int | None = None

    def __post_init__(self) -> None:
        if self.max_length is not None:
            if not self.prefix.length <= self.max_length <= 32:
                raise ValueError(
                    f"maxLength {self.max_length} outside "
                    f"[{self.prefix.length}, 32]"
                )

    @property
    def effective_max_length(self) -> int:
        return self.prefix.length if self.max_length is None else self.max_length

    def authorizes(self, prefix: Prefix, origin_asn: int) -> bool:
        """Does this ROA declare the announcement VALID?"""
        return (
            origin_asn == self.origin_asn
            and self.prefix.contains(prefix)
            and prefix.length <= self.effective_max_length
        )


class OriginAuthority(Protocol):
    """Anything that can validate an announced (prefix, origin) pair."""

    def validate(self, prefix: Prefix, origin_asn: int) -> ValidationState:
        """RFC 6483 verdict for the announcement."""
        ...  # pragma: no cover - protocol


class RoaTable:
    """A validated-ROA payload set with the standard validation algorithm.

    This is the in-memory form every repository backend (RPKI, ROVER)
    reduces to after its own cryptographic checks; it is also usable
    directly as a ground-truth authority in tests and experiments.

    ``version`` moves on every :meth:`add` or :meth:`remove` that changes
    the table, so a reader that memoizes verdicts can tell when they may
    have gone stale.
    """

    def __init__(self, roas: Iterable[RouteOriginAuthorization] = ()) -> None:
        self._by_prefix: PrefixTrie[list[RouteOriginAuthorization]] = PrefixTrie()
        self._count = 0
        self.version = 0
        for roa in roas:
            self.add(roa)

    def add(self, roa: RouteOriginAuthorization) -> None:
        bucket = self._by_prefix.get(roa.prefix)
        if bucket is None:
            bucket = []
            self._by_prefix.insert(roa.prefix, bucket)
        if roa not in bucket:
            bucket.append(roa)
            self._count += 1
            self.version += 1

    def remove(self, roa: RouteOriginAuthorization) -> None:
        bucket = self._by_prefix.get(roa.prefix)
        if not bucket or roa not in bucket:
            raise KeyError(f"{roa} not present")
        bucket.remove(roa)
        self._count -= 1
        self.version += 1
        if not bucket:
            self._by_prefix.remove(roa.prefix)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for _prefix, bucket in self._by_prefix.items():
            yield from bucket

    def covering(self, prefix: Prefix) -> list[RouteOriginAuthorization]:
        """All ROAs whose prefix covers the announced prefix."""
        found: list[RouteOriginAuthorization] = []
        for _covering_prefix, bucket in self._by_prefix.covering(prefix):
            found.extend(bucket)
        return found

    def validate(self, prefix: Prefix, origin_asn: int) -> ValidationState:
        """The RFC 6483 procedure: VALID if any covering ROA authorizes
        the pair, INVALID if covered but never authorized, else NOT_FOUND."""
        covering = self.covering(prefix)
        if not covering:
            return ValidationState.NOT_FOUND
        for roa in covering:
            if roa.authorizes(prefix, origin_asn):
                return ValidationState.VALID
        return ValidationState.INVALID
