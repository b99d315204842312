"""Unit tests for the generation-stepped flood on hand-computed outcomes.

The flood is the oracle's :class:`~repro.oracle.reference.ReferenceSimulator`
(``tests/test_oracle.py`` covers its differential role); these tests pin
the paper's message-level behaviour on the mini topology (see
``conftest``)::

    tier-1:     1 ===== 2
               /|        \\
    tier-2:   10 ======= 20
              | \\       | \\
    mid:      30  \\     40  \\
              |    80___/    |
    stub:     50 70(cust of 1) 60
"""

import pytest

from repro.oracle.reference import ReferenceSimulator
from repro.topology.relationships import RouteClass


@pytest.fixture
def sim(mini_view):
    return ReferenceSimulator(mini_view)


def route(table, mini_view, asn):
    return table.get(mini_view.node_of(asn))


def hijack_report(sim, mini_view, target, attacker, **kwargs):
    """The attack phase's report over the target's converged table."""
    table = sim.converge(mini_view.node_of(target))
    report = sim.announce(mini_view.node_of(attacker), table=table, **kwargs)
    return table, report


class TestLegitimatePropagation:
    def test_full_reachability(self, sim, mini_view):
        report = sim.announce(mini_view.node_of(50))
        assert len(report.adopters) == 9  # everyone except the origin

    def test_route_classes_and_lengths(self, sim, mini_view):
        table = sim.converge(mini_view.node_of(50))
        expect = {
            50: (RouteClass.ORIGIN, 0),
            30: (RouteClass.CUSTOMER, 1),
            10: (RouteClass.CUSTOMER, 2),
            1: (RouteClass.CUSTOMER, 3),
            20: (RouteClass.PEER, 3),      # via peer 10, not provider 2
            2: (RouteClass.PEER, 4),       # tier-1: via peer 1
            80: (RouteClass.PROVIDER, 3),  # the shorter of its two providers
            40: (RouteClass.PROVIDER, 4),
            70: (RouteClass.PROVIDER, 4),
            60: (RouteClass.PROVIDER, 5),
        }
        for asn, (route_class, length) in expect.items():
            installed = route(table, mini_view, asn)
            assert installed is not None, asn
            assert installed.route_class == route_class, asn
            assert installed.length == length, asn

    def test_paths_are_valley_free(self, sim, mini_view):
        table = sim.converge(mini_view.node_of(50))
        # 40's path must go 20 -> 10 -> 30 -> 50 (peer then down), never
        # through provider 2 then down again (that would be a valley).
        installed = route(table, mini_view, 40)
        assert [mini_view.asn_of(n) for n in installed.path] == [20, 10, 30, 50]

    def test_converges_quickly(self, sim, mini_view):
        report = sim.announce(mini_view.node_of(50))
        assert report.generations <= 7


class TestHijack:
    def test_attack_from_deep_stub(self, sim, mini_view):
        _table, report = hijack_report(sim, mini_view, 50, 60)
        polluted = {mini_view.asn_of(node) for node in report.adopters}
        # Hand-computed: 40 (customer beats provider), 20 (customer beats
        # peer), 2 (tier-1 shortest: 3 < 4). 10 keeps its customer route,
        # 80 ties on (provider, 3) and keeps the incumbent.
        assert polluted == {40, 20, 2}

    def test_attack_from_tier1_stub(self, sim, mini_view):
        _table, report = hijack_report(sim, mini_view, 50, 70)
        polluted = {mini_view.asn_of(node) for node in report.adopters}
        assert polluted == {1, 2}

    def test_tier1_tie_keeps_legitimate_route(self, sim, mini_view):
        # AS2's legit route is peer length 4; an attack giving it a
        # customer route of length 4 must NOT displace it (the paper's
        # AS6450 blind-spot mechanics). Attacker 60: AS2 gets customer
        # length 3 < 4 so it IS displaced; attacker 50->60 scenario covers
        # the tie in test_attack_from_deep_stub via AS80 (provider tie).
        table, _report = hijack_report(sim, mini_view, 50, 60)
        installed = route(table, mini_view, 80)
        assert installed.origin == mini_view.node_of(50)

    def test_events_recorded_with_colors(self, sim, mini_view):
        _table, report = hijack_report(sim, mini_view, 50, 60)
        assert report.events, "expected recorded events"
        accepted = [event for event in report.events if event.accepted]
        rejected = [event for event in report.events if not event.accepted]
        assert accepted and rejected
        assert all(event.origin == mini_view.node_of(60) for event in report.events)
        # Generation numbering starts at 1 and is contiguous, and every
        # counted generation carries at least one offer.
        generations = {event.generation for event in report.events}
        assert generations == set(range(1, report.generations + 1))
        assert report.events_in_generation(1)
        # Within a generation, events follow (receiver, class, sender).
        for generation in generations:
            keys = [
                (event.receiver, event.route_class, event.sender)
                for event in report.events_in_generation(generation)
            ]
            assert keys == sorted(keys)

    def test_blocked_node_stops_propagation(self, sim, mini_view):
        _table, report = hijack_report(
            sim, mini_view, 50, 60, blocked={mini_view.node_of(20)}
        )
        polluted = {mini_view.asn_of(node) for node in report.adopters}
        # Without AS20 accepting, the bogus route never reaches AS2.
        assert polluted == {40}
        # The blocked receiver's offers are logged, all rejected.
        at_20 = [e for e in report.events if e.receiver == mini_view.node_of(20)]
        assert at_20 and not any(event.accepted for event in at_20)

    def test_stub_filter_logs_rejected_first_hop(self, sim, mini_view):
        # AS60 is a stub whose only neighbor is its provider AS40: with
        # the filter on, generation 1 is one rejected offer and the
        # flood ends there.
        _table, report = hijack_report(
            sim, mini_view, 50, 60, filter_first_hop_providers=True
        )
        assert report.adopters == frozenset()
        assert report.generations == 1
        [event] = report.events
        assert event.receiver == mini_view.node_of(40)
        assert not event.accepted

    def test_tier1_policy_ablation_changes_outcome(self, mini_view):
        sim = ReferenceSimulator(mini_view, tier1_shortest_path=False)
        _table, report = hijack_report(sim, mini_view, 50, 60)
        polluted = {mini_view.asn_of(node) for node in report.adopters}
        # AS2 now ranks its customer route (via 20) above the shorter
        # peer route, so the legit customer route via 20... is replaced
        # when 20 is polluted; the bogus route arrives as a customer route
        # of length 3 which now beats the peer incumbent by class.
        assert 2 in polluted

    def test_adopters_of_excludes_origin(self, sim, mini_view):
        origin = mini_view.node_of(50)
        report = sim.announce(origin)
        assert origin not in report.adopters
        assert origin not in sim.holders_of(sim.converge(origin), origin)


class TestMultiplePrefixes:
    def test_independent_tables(self, sim, mini_view):
        # Each prefix is its own table: flooding a second origin into a
        # fresh table leaves the first one untouched.
        first = sim.converge(mini_view.node_of(50))
        other = sim.converge(mini_view.node_of(60))
        assert route(first, mini_view, 40).origin == mini_view.node_of(50)
        assert route(other, mini_view, 40).origin == mini_view.node_of(60)
