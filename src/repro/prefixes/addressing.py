"""Address-space allocation: which AS originates which prefixes.

The paper measures attack impact two ways: polluted-AS counts and the share
of IP address space that is drawn away from the rightful origin (Fig. 1:
"96% of the internet address space can no longer reach the target"; node
sizes in the polar graphs reflect owned address space). Reproducing those
metrics requires an explicit, disjoint allocation of prefixes to ASes.

:class:`AddressPlan` carves the unicast IPv4 space into per-AS blocks whose
sizes follow the allocation reality the paper's CAIDA-derived topology has:
a handful of tier-1/tier-2 carriers own enormous aggregates while the tail
of stub ASes originates a /22–/24 or two. Block sizes are driven by a caller
supplied weight per AS (the topology layer passes degree-derived weights),
so any topology — synthetic or real CAIDA — obtains a plausible plan.

Allocation is deterministic for a given input ordering and seed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from repro.prefixes.prefix import Prefix
from repro.util.rng import make_rng

__all__ = ["AddressPlan"]

# Allocate inside 1.0.0.0/8 .. 223.255.255.255 (classic unicast space),
# skipping the loopback /8. The simulator never needs the reserved ranges
# and skipping them keeps printed prefixes plausible.
_POOL_START = 1 << 24  # 1.0.0.0
_POOL_END = 224 << 24  # first address past 223.255.255.255
_LOOPBACK = Prefix.parse("127.0.0.0/8")
_LOOPBACK_FIRST, _LOOPBACK_LAST = _LOOPBACK.first_address(), _LOOPBACK.last_address()
_network = attrgetter("network")


class AllocationError(RuntimeError):
    """Raised when the pool cannot satisfy the requested allocation."""


def _weight_to_length(weight: float, max_weight: float) -> int:
    """Map a relative weight to a prefix length.

    The heaviest AS receives a /10; weight decays map down to /24, roughly
    log-scaled so the resulting size distribution is heavy-tailed like real
    RIR allocations.
    """
    if max_weight <= 0 or weight <= 0:
        return 24
    # ratio in (0, 1]; log2 spread over the /10../24 range (14 steps).
    ratio = min(1.0, weight / max_weight)
    steps = int(round(-math.log2(max(ratio, 2.0 ** -14))))
    return min(24, 10 + steps)


@dataclass
class AddressPlan:
    """A disjoint assignment of IPv4 prefixes to autonomous systems.

    Disjoint blocks need no trie: sorted by first address, the only block
    that can contain a query is the last one starting at or before it,
    and the blocks a query covers are those starting inside it, so every
    lookup is one bisection of ``_blocks``.
    """

    _by_asn: dict[int, list[Prefix]] = field(default_factory=dict)
    # Every block, sorted by first address, and each block's origin ASN
    # at the same index.
    _blocks: list[Prefix] = field(default_factory=list)
    _owners: list[int] = field(default_factory=list)
    _total_size: int = 0
    # Per-ASN address totals, kept in step by _add so the
    # pollution metric never re-sums prefix sizes.
    _space_by_asn: dict[int, int] = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        weights: Mapping[int, float],
        *,
        seed: int = 0,
        extra_prefix_probability: float = 0.15,
    ) -> "AddressPlan":
        """Allocate one block per AS (heaviest first), sized by weight.

        ``weights`` maps ASN → relative size weight (e.g. AS degree).
        With probability ``extra_prefix_probability`` an AS receives a second
        smaller block, which gives the sub-prefix and multi-origin
        experiments realistic material to work with.
        """
        if not weights:
            return cls()
        rng = make_rng(seed, "address-plan")
        max_weight = max(weights.values())
        requests: list[tuple[int, int]] = []  # (length, asn)
        for asn in sorted(weights):
            length = _weight_to_length(weights[asn], max_weight)
            requests.append((length, asn))
            if rng.random() < extra_prefix_probability:
                requests.append((min(24, length + 2), asn))
        # Largest blocks first: with aligned carving this never fragments.
        requests.sort(key=lambda item: (item[0], item[1]))
        plan = cls()
        cursor = end = _POOL_START  # end: first address past the last block
        for length, asn in requests:
            block = 1 << (32 - length)
            cursor = (cursor + block - 1) // block * block  # align up
            if cursor <= _LOOPBACK_LAST and cursor + block > _LOOPBACK_FIRST:
                cursor = _LOOPBACK_LAST + 1
                cursor = (cursor + block - 1) // block * block
            prefix = Prefix(cursor, length)
            if cursor + block > _POOL_END:
                raise AllocationError(
                    f"pool exhausted allocating /{length} for AS{asn}"
                )
            # A block starting at or past the previous block's end is
            # disjoint from every block so far and goes last in start
            # order, so no overlap search is needed.
            if cursor < end:
                raise AllocationError(f"{prefix} overlaps allocated {plan._blocks[-1]}")
            plan._add(asn, prefix)
            end = cursor = cursor + block
        return plan

    def _add(self, asn: int, prefix: Prefix) -> None:
        """Append a block that starts past the end of every block so far."""
        self._by_asn.setdefault(asn, []).append(prefix)
        self._blocks.append(prefix)
        self._owners.append(asn)
        size = prefix.size()
        self._total_size += size
        self._space_by_asn[asn] = self._space_by_asn.get(asn, 0) + size

    def _block_containing(self, prefix: Prefix) -> int | None:
        """The index of the allocated block equal to or containing
        *prefix*, if any."""
        index = bisect_right(self._blocks, prefix.network, key=_network) - 1
        if index < 0 or not self._blocks[index].contains(prefix):
            return None
        return index

    # -- queries -----------------------------------------------------------

    def prefixes_of(self, asn: int) -> Sequence[Prefix]:
        """Prefixes originated by *asn* (empty if none allocated)."""
        return tuple(self._by_asn.get(asn, ()))

    def primary_prefix(self, asn: int) -> Prefix:
        """The largest (first-allocated) prefix of *asn*."""
        prefixes = self._by_asn.get(asn)
        if not prefixes:
            raise KeyError(f"AS{asn} has no allocation")
        return min(prefixes, key=lambda p: (p.length, p.network))

    def origin_of(self, prefix: Prefix) -> int | None:
        """The AS whose allocation contains *prefix*, if any."""
        index = self._block_containing(prefix)
        return None if index is None else self._owners[index]

    def address_space_of(self, asn: int) -> int:
        return self._space_by_asn.get(asn, 0)

    def total_allocated(self) -> int:
        """Total number of allocated addresses across all ASes."""
        return self._total_size

    def fraction_owned(self, asns: Iterable[int]) -> float:
        """Share of *allocated* space owned by the given ASes.

        This is the paper's "% of the internet address space" metric: when a
        set of ASes routes traffic to the hijacker, the space they serve is
        proportional to the space behind them, approximated here by the space
        the polluted ASes themselves originate.
        """
        if self._total_size == 0:
            return 0.0
        if not isinstance(asns, (set, frozenset)):
            asns = set(asns)
        space = self._space_by_asn
        owned = sum(space.get(asn, 0) for asn in asns)
        return owned / self._total_size

    def all_asns(self) -> Sequence[int]:
        return tuple(sorted(self._by_asn))

    def items(self) -> Iterable[tuple[Prefix, int]]:
        """All ``(prefix, origin ASN)`` pairs in prefix order."""
        return zip(self._blocks, self._owners)

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn
