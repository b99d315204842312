"""Unit tests for the address-space allocator."""

import pytest

from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix


@pytest.fixture
def plan() -> AddressPlan:
    weights = {asn: float(asn) for asn in range(1, 40)}
    return AddressPlan.build(weights, seed=3)


class TestBuild:
    def test_every_as_gets_a_prefix(self, plan):
        for asn in range(1, 40):
            assert plan.prefixes_of(asn), f"AS{asn} missing allocation"

    def test_allocations_are_disjoint(self, plan):
        allocations = [prefix for prefix, _ in plan.items()]
        for index, a in enumerate(allocations):
            for b in allocations[index + 1:]:
                assert not (a.contains(b) or b.contains(a)), f"{a} overlaps {b}"

    def test_heavier_weight_gets_more_space(self, plan):
        assert plan.address_space_of(39) > plan.address_space_of(1)

    def test_deterministic_for_seed(self):
        weights = {asn: 1.0 for asn in range(1, 20)}
        first = AddressPlan.build(weights, seed=5)
        second = AddressPlan.build(weights, seed=5)
        assert list(first.items()) == list(second.items())

    def test_loopback_never_allocated(self):
        weights = {asn: 1000.0 for asn in range(1, 300)}
        plan = AddressPlan.build(weights, seed=0)
        loopback = Prefix.parse("127.0.0.0/8")
        for prefix, _asn in plan.items():
            assert not (loopback.contains(prefix) or prefix.contains(loopback))

    def test_empty_weights(self):
        plan = AddressPlan.build({})
        assert len(plan) == 0
        assert plan.total_allocated() == 0


class TestQueries:
    def test_origin_of_allocated_space(self, plan):
        prefix = plan.primary_prefix(10)
        assert plan.origin_of(prefix) == 10
        sub = next(prefix.subnets())
        assert plan.origin_of(sub) == 10

    def test_origin_of_unallocated_space(self, plan):
        assert plan.origin_of(Prefix.parse("223.255.255.0/24")) is None

    def test_primary_prefix_is_largest(self, plan):
        for asn in (5, 20, 39):
            primary = plan.primary_prefix(asn)
            assert all(
                primary.length <= other.length for other in plan.prefixes_of(asn)
            )

    def test_primary_prefix_unknown_as(self, plan):
        with pytest.raises(KeyError):
            plan.primary_prefix(999)

    def test_fraction_owned_sums_to_one(self, plan):
        assert plan.fraction_owned(plan.all_asns()) == pytest.approx(1.0)

    def test_fraction_owned_empty(self, plan):
        assert plan.fraction_owned([]) == 0.0

    def test_fraction_owned_dedupes(self, plan):
        once = plan.fraction_owned([10])
        twice = plan.fraction_owned([10, 10])
        assert once == twice

    def test_contains(self, plan):
        assert 10 in plan
        assert 999 not in plan


class TestAssign:
    def test_assign_tracks_totals(self):
        # Every AS gets a second block: the totals sum both.
        plan = AddressPlan.build({1: 4.0, 2: 1.0}, extra_prefix_probability=1.0)
        assert len(plan) == 4
        assert plan.address_space_of(1) == (1 << 22) + (1 << 20)  # a /10 and a /12
        assert plan.total_allocated() == sum(
            plan.address_space_of(asn) for asn in plan.all_asns()
        )
