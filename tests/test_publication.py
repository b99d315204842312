"""Unit tests for publication state: who published, what validates."""

import pytest

from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix
from repro.registry.publication import PublicationState
from repro.registry.roa import ValidationState


@pytest.fixture
def plan() -> AddressPlan:
    plan = AddressPlan.build({65001: 1.0, 65002: 1.0}, extra_prefix_probability=0.5)
    assert [(str(prefix), asn) for prefix, asn in plan.items()] == [
        ("1.0.0.0/10", 65001), ("1.64.0.0/10", 65002), ("1.128.0.0/12", 65002),
    ]
    return plan


class TestTruthTable:
    def test_all_allocations_covered(self, plan):
        table = PublicationState.full(plan).table()
        assert table.validate(Prefix.parse("1.0.0.0/10"), 65001) is ValidationState.VALID
        assert table.validate(Prefix.parse("1.128.0.0/12"), 65002) is ValidationState.VALID
        assert table.validate(Prefix.parse("1.0.0.0/10"), 65002) is ValidationState.INVALID


class TestParticipation:
    def test_unpublished_target_cannot_be_protected(self, plan):
        state = PublicationState.with_participants(plan, [65002])
        # 65001 never published: a hijack of its space is NOT_FOUND, which
        # filters must not drop (Section VII: publishing is critical).
        verdict = state.validate(Prefix.parse("1.0.0.0/10"), 64999)
        assert verdict is ValidationState.NOT_FOUND

    def test_published_target_is_protected(self, plan):
        state = PublicationState.with_participants(plan, [65001])
        assert state.validate(Prefix.parse("1.0.0.0/10"), 64999) is ValidationState.INVALID
        assert state.validate(Prefix.parse("1.0.0.0/10"), 65001) is ValidationState.VALID

    def test_publish_is_idempotent(self, plan):
        state = PublicationState(plan)
        state.publish(65002)
        state.publish(65002)
        assert len(state.table()) == 2

    def test_full_publication(self, plan):
        state = PublicationState.full(plan)
        assert state.participants == frozenset({65001, 65002})
        assert state.has_published(65001)


class TestMaterialization:
    def test_partial_participation_materializes_partially(self, plan):
        state = PublicationState.with_participants(plan, [65001])
        table = state.table()
        assert table.validate(Prefix.parse("1.64.0.0/10"), 64999) is ValidationState.NOT_FOUND
        assert table.validate(Prefix.parse("1.0.0.0/10"), 64999) is ValidationState.INVALID
