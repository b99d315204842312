"""Property-based tests: the trie must behave exactly like a brute-force
dictionary of prefixes."""

from hypothesis import given
from hypothesis import strategies as st

from repro.prefixes.prefix import Prefix
from repro.prefixes.trie import PrefixTrie

prefixes = st.builds(
    Prefix.from_host,
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)
prefix_lists = st.lists(prefixes, max_size=40)


def build(entries):
    trie: PrefixTrie[int] = PrefixTrie()
    reference: dict[Prefix, int] = {}
    for index, prefix in enumerate(entries):
        trie.insert(prefix, index)
        reference[prefix] = index
    return trie, reference


@given(prefix_lists)
def test_matches_reference_dict(entries):
    trie, reference = build(entries)
    assert len(trie) == len(reference)
    for prefix, value in reference.items():
        assert trie.get(prefix) == value
    assert dict(trie.items()) == reference


@given(prefix_lists, prefixes)
def test_covering_is_brute_force_filter(entries, query):
    trie, reference = build(entries)
    expected = sorted(
        (p for p in reference if p.contains(query)), key=lambda p: p.length
    )
    found = [p for p, _ in trie.covering(query)]
    assert found == expected


@given(prefix_lists, prefixes)
def test_iter_covered_is_brute_force_strict_filter(entries, query):
    trie, reference = build(entries)
    expected = sorted(p for p in reference if query.contains(p) and p != query)
    found = [p for p, _ in trie.iter_covered(query)]
    assert found == sorted(found)
    assert sorted(found) == expected
    for prefix, value in trie.iter_covered(query):
        assert value == reference[prefix]


@given(prefix_lists, st.data())
def test_removal_restores_absence(entries, data):
    trie, reference = build(entries)
    if not reference:
        return
    victim = data.draw(st.sampled_from(sorted(reference)))
    assert trie.remove(victim) == reference[victim]
    del reference[victim]
    assert trie.get(victim) is None
    assert dict(trie.items()) == reference


@given(prefix_lists)
def test_items_sorted(entries):
    trie, _ = build(entries)
    keys = [prefix for prefix, _ in trie.items()]
    assert keys == sorted(keys)
