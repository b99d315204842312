"""Unit tests for the radix trie."""

import pytest

from repro.prefixes.prefix import Prefix
from repro.prefixes.trie import PrefixTrie


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture
def populated() -> PrefixTrie[str]:
    trie: PrefixTrie[str] = PrefixTrie()
    trie.insert(p("10.0.0.0/8"), "ten")
    trie.insert(p("10.1.0.0/16"), "ten-one")
    trie.insert(p("10.1.2.0/24"), "ten-one-two")
    trie.insert(p("192.168.0.0/16"), "private")
    return trie


class TestBasics:
    def test_insert_get(self, populated):
        assert populated.get(p("10.1.0.0/16")) == "ten-one"

    def test_get_missing_returns_default(self, populated):
        assert populated.get(p("11.0.0.0/8")) is None
        assert populated.get(p("11.0.0.0/8"), "x") == "x"

    def test_contains_is_exact_not_covering(self, populated):
        assert populated.get(p("10.0.0.0/8")) == "ten"
        assert populated.get(p("10.2.0.0/16")) is None  # covered but not stored

    def test_len_counts_values(self, populated):
        assert len(populated) == 4

    def test_replace_does_not_grow(self, populated):
        populated.insert(p("10.0.0.0/8"), "TEN")
        assert len(populated) == 4
        assert populated.get(p("10.0.0.0/8")) == "TEN"

    def test_root_value(self):
        trie: PrefixTrie[str] = PrefixTrie()
        trie.insert(Prefix(0, 0), "default")
        assert trie.get(Prefix(0, 0)) == "default"
        assert list(trie.covering(p("10.1.2.3/32"))) == [(Prefix(0, 0), "default")]

    def test_setdefault_installs_then_returns_existing(self, populated):
        legal = populated.setdefault(p("11.0.0.0/8"), "eleven")
        assert legal == "eleven"
        assert len(populated) == 5
        assert populated.setdefault(p("11.0.0.0/8"), "other") == "eleven"
        assert len(populated) == 5  # second call must not grow the trie

    def test_setdefault_mutable_accumulator(self):
        # the ingest RIB compiler's idiom: grow a legal-origin set in place
        trie: PrefixTrie[set[int]] = PrefixTrie()
        trie.setdefault(p("10.0.0.0/8"), set()).add(50)
        trie.setdefault(p("10.0.0.0/8"), set()).add(60)
        assert trie.get(p("10.0.0.0/8")) == {50, 60}
        assert len(trie) == 1


class TestRemoval:
    def test_remove_returns_value(self, populated):
        assert populated.remove(p("10.1.0.0/16")) == "ten-one"
        assert populated.get(p("10.1.0.0/16")) is None
        assert len(populated) == 3

    def test_remove_keeps_descendants(self, populated):
        populated.remove(p("10.1.0.0/16"))
        assert populated.get(p("10.1.2.0/24")) == "ten-one-two"

    def test_remove_missing_raises(self, populated):
        with pytest.raises(KeyError):
            populated.remove(p("10.2.0.0/16"))


class TestWalks:
    def test_covering_shortest_first(self, populated):
        found = list(populated.covering(p("10.1.2.0/24")))
        assert [value for _, value in found] == ["ten", "ten-one", "ten-one-two"]

    def test_iter_covered_is_strict(self, populated):
        # The query prefix itself is excluded.
        inside = list(populated.iter_covered(p("10.0.0.0/8")))
        assert [value for _, value in inside] == ["ten-one", "ten-one-two"]

    def test_iter_covered_sorted(self, populated):
        populated.insert(p("10.0.0.0/9"), "ten-low")
        keys = [prefix for prefix, _ in populated.iter_covered(p("10.0.0.0/8"))]
        assert keys == sorted(keys)

    def test_iter_covered_missing_branch_is_empty(self, populated):
        assert list(populated.iter_covered(p("11.0.0.0/8"))) == []

    def test_iter_covered_host_route_is_empty(self, populated):
        populated.insert(p("10.1.2.3/32"), "host")
        assert list(populated.iter_covered(p("10.1.2.3/32"))) == []

    def test_items_in_prefix_order(self, populated):
        keys = [prefix for prefix, _ in populated.items()]
        assert keys == sorted(keys)
