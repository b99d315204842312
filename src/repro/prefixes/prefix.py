"""IPv4 prefix model.

The paper reasons about hijacks of *address space*: an attacker announces a
target's prefix (an origin hijack) or a more-specific slice of it (a
sub-prefix hijack), and results are reported both as polluted-AS counts and as
the fraction of internet address space that no longer reaches its rightful
destination ("96% of the IP address space no longer reaches the correct
destination", Fig. 1 caption).

This module provides a compact, hashable, total-ordered IPv4 ``Prefix`` value
type used throughout the simulator, the registries (RPKI / ROVER) and the
address-space accounting. It is deliberately independent from
:mod:`ipaddress` so that the representation stays a plain ``(network, length)``
integer pair that the radix trie and the allocator can manipulate directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Prefix", "PrefixError"]

_MAX_LENGTH = 32
_ADDRESS_SPACE = 1 << _MAX_LENGTH

# Text -> Prefix for Prefix.parse. A feed names the same few prefixes over
# and over; a Prefix is immutable, so one parsed value can be shared.
# Only successes are stored, and the dict starts over when it is full.
# A text longer than the longest canonical form ("255.255.255.255/32") is
# padded with spaces or zeros; it parses but is not kept, so outside input
# cannot pin more than _PARSED_LIMIT short keys.
_PARSED: dict[str, "Prefix"] = {}
_PARSED_LIMIT = 1 << 14
_PARSED_TEXT_MAX = len("255.255.255.255/32")


class PrefixError(ValueError):
    """Raised for malformed prefix strings or out-of-range components."""


def _parse_dotted_quad(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixError(f"expected dotted quad, got {text!r}")
    if len(text) > 15:
        # Longer than "255.255.255.255": leading zeros, or an octet too
        # long for ``int`` to read (it refuses very long text).
        parts = [part.lstrip("0") or "0" if part.isdigit() else part for part in parts]
        if any(len(part) > 3 for part in parts if part.isdigit()):
            raise PrefixError(f"octet out of range in {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise PrefixError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _format_dotted_quad(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 CIDR prefix, e.g. ``Prefix.parse("203.0.113.0/24")``.

    ``network`` is the 32-bit integer network address (host bits must be
    zero) and ``length`` the mask length in ``[0, 32]``. Instances are
    immutable, hashable and totally ordered by ``(network, length)``, which
    sorts supernets before their first subnet — the order a radix walk
    naturally produces. The hash is ``hash((network, length))``, computed
    once: a prefix is a dict key on every event's path. Instances have
    slots, not a ``__dict__``: an address plan holds one per AS.
    """

    __slots__ = ("network", "length", "_hash")

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= _MAX_LENGTH:
            raise PrefixError(f"prefix length {self.length} out of range")
        if not 0 <= self.network < _ADDRESS_SPACE:
            raise PrefixError(f"network {self.network:#x} out of range")
        if self.network & (self.host_mask()):
            raise PrefixError(
                f"host bits set in {_format_dotted_quad(self.network)}/{self.length}"
            )
        # Not a field, so not in repr, eq, ordering, fields() or asdict().
        object.__setattr__(self, "_hash", hash((self.network, self.length)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self) -> tuple[type["Prefix"], tuple[int, int]]:
        # Rebuilt through __init__: the default slot-state restore would
        # assign the fields, which a frozen instance refuses.
        return type(self), (self.network, self.length)

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare address, meaning a /32)."""
        if cls is Prefix:
            parsed = _PARSED.get(text)
            if parsed is None:
                parsed = cls._parse(text)
                if len(text) <= _PARSED_TEXT_MAX:
                    if len(_PARSED) >= _PARSED_LIMIT:
                        _PARSED.clear()
                    _PARSED[text] = parsed
            return parsed
        return cls._parse(text)

    @classmethod
    def _parse(cls, text: str) -> "Prefix":
        text = text.strip()
        # ``str.isdigit`` also accepts non-ASCII digits: superscripts,
        # which ``int`` rejects, and other scripts' digits, which ``int``
        # reads as ASCII ones.
        if not text.isascii():
            raise PrefixError(f"non-ASCII character in {text!r}")
        if "/" in text:
            addr_part, _, len_part = text.partition("/")
            if not len_part.isdigit():
                raise PrefixError(f"bad prefix length in {text!r}")
            if len(len_part) > 2:  # leading zeros, or too long for ``int`` to read
                len_part = len_part.lstrip("0") or "0"
                if len(len_part) > 2:
                    raise PrefixError(f"prefix length out of range in {text!r}")
            length = int(len_part)
        else:
            addr_part, length = text, _MAX_LENGTH
        return cls(_parse_dotted_quad(addr_part), length)

    @classmethod
    def from_host(cls, address: int, length: int) -> "Prefix":
        """Build a prefix from *any* address inside it by masking host bits."""
        if not 0 <= address < _ADDRESS_SPACE:
            raise PrefixError(f"address {address:#x} out of range")
        mask = ((1 << length) - 1) << (_MAX_LENGTH - length) if length else 0
        return cls(address & mask, length)

    # -- mask helpers ------------------------------------------------------

    def netmask(self) -> int:
        """The 32-bit network mask as an integer."""
        if self.length == 0:
            return 0
        return ((1 << self.length) - 1) << (_MAX_LENGTH - self.length)

    def host_mask(self) -> int:
        """The inverse mask covering the host bits."""
        return _ADDRESS_SPACE - 1 - self.netmask()

    # -- size and containment ---------------------------------------------

    def size(self) -> int:
        """Number of addresses covered (2^(32-length))."""
        return 1 << (_MAX_LENGTH - self.length)

    def first_address(self) -> int:
        return self.network

    def last_address(self) -> int:
        return self.network | self.host_mask()

    def contains(self, other: "Prefix") -> bool:
        """True if *other* is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.network & self.netmask()) == self.network

    def contains_address(self, address: int) -> bool:
        return (address & self.netmask()) == self.network

    # -- derivation --------------------------------------------------------

    def supernet(self) -> "Prefix":
        """The enclosing prefix one bit shorter. Errors on ``0.0.0.0/0``."""
        if self.length == 0:
            raise PrefixError("0.0.0.0/0 has no supernet")
        return Prefix.from_host(self.network, self.length - 1)

    def subnets(self, new_length: int | None = None) -> Iterator["Prefix"]:
        """Iterate the subdivisions of this prefix at ``new_length``.

        Defaults to splitting one bit deeper (two halves).
        """
        if new_length is None:
            new_length = self.length + 1
        if new_length < self.length:
            raise PrefixError(
                f"cannot subnet /{self.length} into shorter /{new_length}"
            )
        if new_length > _MAX_LENGTH:
            raise PrefixError(f"subnet length /{new_length} exceeds /32")
        step = 1 << (_MAX_LENGTH - new_length)
        for network in range(self.network, self.last_address() + 1, step):
            yield Prefix(network, new_length)

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        return f"{_format_dotted_quad(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"
