"""Property-based tests for the Prefix value type."""

from hypothesis import given
from hypothesis import strategies as st

from repro.prefixes.prefix import Prefix

prefixes = st.builds(
    Prefix.from_host,
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)


@given(prefixes)
def test_parse_str_round_trip(prefix):
    assert Prefix.parse(str(prefix)) == prefix


@given(prefixes)
def test_contains_is_reflexive(prefix):
    assert prefix.contains(prefix)


@given(prefixes, prefixes)
def test_containment_antisymmetry(a, b):
    if a.contains(b) and b.contains(a):
        assert a == b


@given(prefixes, prefixes, prefixes)
def test_containment_transitivity(a, b, c):
    if a.contains(b) and b.contains(c):
        assert a.contains(c)


@given(prefixes)
def test_supernet_contains_child(prefix):
    if prefix.length > 0:
        parent = prefix.supernet()
        assert parent.contains(prefix)
        assert parent.size() == 2 * prefix.size()


@given(prefixes)
def test_subnets_partition_parent(prefix):
    if prefix.length < 32:
        halves = list(prefix.subnets())
        assert len(halves) == 2
        assert halves[0].size() + halves[1].size() == prefix.size()
        assert prefix.contains(halves[0]) and prefix.contains(halves[1])
        assert not halves[0].contains(halves[1])
        assert not halves[1].contains(halves[0])


@given(prefixes)
def test_size_matches_address_range(prefix):
    assert prefix.last_address() - prefix.first_address() + 1 == prefix.size()


@given(prefixes, st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_contains_address_matches_from_host(prefix, address):
    assert prefix.contains_address(address) == (
        Prefix.from_host(address, prefix.length) == prefix
    )
