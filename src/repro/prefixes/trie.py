"""Binary radix trie with covering and sub-prefix walks.

Origin validation needs covering-prefix lookups (every published ROA whose
prefix contains an announcement), and the monitor needs the reverse walk:
a tenant registered for a /24 must also see the /25 carved out of it, the
sub-prefix hijack shape. Both needs are served by this trie.

The trie maps :class:`~repro.prefixes.prefix.Prefix` keys to arbitrary
values. It is a plain uncompressed binary trie — at the scale of this
simulator (thousands of prefixes, 32-bit keys) path compression buys nothing
measurable and costs clarity.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from repro.prefixes.prefix import Prefix

__all__ = ["PrefixTrie"]

V = TypeVar("V")


def _shifts(prefix: Prefix) -> range:
    """Right-shifts bringing *prefix*'s network bits, most significant
    first, to bit 0: the walk from the root to *prefix*'s node."""
    return range(31, 31 - prefix.length, -1)


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list["_Node[V]" | None] = [None, None]
        self.value: V | None = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """A mapping from IPv4 prefixes to values with radix-tree lookups.

    Besides the basics (``insert`` / ``setdefault`` / ``get`` /
    ``remove`` / ``len`` / ``items``), it offers the two walks
    origin validation and the monitor need:

    * :meth:`covering` — all stored prefixes that contain a given prefix
      (what an RPKI validator walks to find candidate ROAs),
    * :meth:`iter_covered` — all stored prefixes strictly inside a given
      prefix (what a tenant's sub-prefix cover enumerates).
    """

    def __init__(self) -> None:
        self._root: _Node[V] = _Node()
        self._count = 0

    # -- mutation ----------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at *prefix*."""
        node = self._root
        network = prefix.network
        for shift in _shifts(prefix):
            bit = (network >> shift) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._count += 1
        node.value = value
        node.has_value = True

    def remove(self, prefix: Prefix) -> V:
        """Remove *prefix* and return its value; ``KeyError`` if absent."""
        path: list[tuple[_Node[V], int]] = []
        node = self._root
        network = prefix.network
        for shift in _shifts(prefix):
            bit = (network >> shift) & 1
            child = node.children[bit]
            if child is None:
                raise KeyError(str(prefix))
            path.append((node, bit))
            node = child
        if not node.has_value:
            raise KeyError(str(prefix))
        value = node.value
        node.value = None
        node.has_value = False
        self._count -= 1
        # Prune now-empty branches so memory tracks the live contents.
        for parent, bit in reversed(path):
            child = parent.children[bit]
            assert child is not None
            if child.has_value or child.children[0] or child.children[1]:
                break
            parent.children[bit] = None
        return value  # type: ignore[return-value]

    def setdefault(self, prefix: Prefix, default: V) -> V:
        """Return the value at *prefix*, inserting *default* if absent.

        The accumulator idiom (``trie.setdefault(p, set()).add(x)``)
        used by the RIB compiler to grow per-prefix legal-origin sets
        in one walk instead of a get-then-insert pair.
        """
        node = self._root
        network = prefix.network
        for shift in _shifts(prefix):
            bit = (network >> shift) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
        if not node.has_value:
            node.value = default
            node.has_value = True
            self._count += 1
        return node.value  # type: ignore[return-value]

    # -- exact lookups -----------------------------------------------------

    def get(self, prefix: Prefix, default: V | None = None) -> V | None:
        node = self._find(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def __len__(self) -> int:
        return self._count

    def _find(self, prefix: Prefix) -> _Node[V] | None:
        node = self._root
        network = prefix.network
        for shift in _shifts(prefix):
            node = node.children[(network >> shift) & 1]
            if node is None:
                return None
        return node

    # -- containment walks -------------------------------------------------

    def covering(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """All stored prefixes that contain *prefix*, shortest first."""
        node = self._root
        if node.has_value:
            yield Prefix(0, 0), node.value  # type: ignore[misc]
        network = prefix.network
        for shift in _shifts(prefix):
            node = node.children[(network >> shift) & 1]
            if node is None:
                return
            if node.has_value:
                yield Prefix.from_host(network, 32 - shift), node.value  # type: ignore[misc]

    def iter_covered(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """All stored prefixes *strictly* inside *prefix*, in sorted order.

        The sub-prefix-cover lookup: a tenant registered for a /24 must
        also see announcements of any /25..../32 carved out of it (the
        sub-prefix hijack shape), which are the entries this walk yields.
        The query prefix itself is excluded.
        """
        node = self._find(prefix)
        if node is None or prefix.length == 32:
            return
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                yield from self._walk(
                    child,
                    prefix.network | (bit << (31 - prefix.length)),
                    prefix.length + 1,
                )

    def items(self) -> Iterator[tuple[Prefix, V]]:
        yield from self._walk(self._root, 0, 0)

    def _walk(self, node: _Node[V], network: int, depth: int) -> Iterator[tuple[Prefix, V]]:
        if node.has_value:
            yield Prefix.from_host(network, depth), node.value  # type: ignore[misc]
        if depth == 32:
            return
        for bit in (0, 1):
            child = node.children[bit]
            if child is not None:
                yield from self._walk(child, network | (bit << (31 - depth)), depth + 1)
