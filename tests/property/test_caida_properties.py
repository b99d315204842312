"""Property-based tests: CAIDA serialization round-trips any topology.

Graphs come from the shared strategy library (arbitrary flat graphs, not
hierarchies — serialization must survive anything, routable or not).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.topology.caida import dumps_caida, loads_caida

from tests.strategies import flat_graphs


@given(flat_graphs())
def test_round_trip_preserves_all_links(graph):
    restored = loads_caida(dumps_caida(graph))
    assert restored.edge_count() == graph.edge_count()
    for a, b, relationship in graph.edges():
        assert restored.relationship(a, b) is relationship


@given(flat_graphs(), st.sampled_from([1, 2]))
def test_round_trip_both_serials(graph, serial):
    restored = loads_caida(dumps_caida(graph, serial=serial))
    assert sorted(restored.asns()) == sorted(
        asn for asn in graph.asns() if graph.degree(asn) > 0
    ) or restored.edge_count() == graph.edge_count()


@given(flat_graphs())
def test_dump_is_deterministic(graph):
    assert dumps_caida(graph) == dumps_caida(graph)
