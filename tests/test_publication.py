"""Unit tests for publication state: who published, what validates."""

import pytest

from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix
from repro.registry.publication import PublicationState, plan_truth_table
from repro.registry.roa import ValidationState


@pytest.fixture
def plan() -> AddressPlan:
    plan = AddressPlan()
    plan.assign(65001, Prefix.parse("10.0.0.0/16"))
    plan.assign(65002, Prefix.parse("10.1.0.0/16"))
    plan.assign(65002, Prefix.parse("20.0.0.0/16"))
    return plan


class TestTruthTable:
    def test_all_allocations_covered(self, plan):
        table = plan_truth_table(plan)
        assert table.validate(Prefix.parse("10.0.0.0/16"), 65001) is ValidationState.VALID
        assert table.validate(Prefix.parse("20.0.0.0/16"), 65002) is ValidationState.VALID
        assert table.validate(Prefix.parse("10.0.0.0/16"), 65002) is ValidationState.INVALID


class TestParticipation:
    def test_unpublished_target_cannot_be_protected(self, plan):
        state = PublicationState.with_participants(plan, [65002])
        # 65001 never published: a hijack of its space is NOT_FOUND, which
        # filters must not drop (Section VII: publishing is critical).
        verdict = state.validate(Prefix.parse("10.0.0.0/16"), 64999)
        assert verdict is ValidationState.NOT_FOUND

    def test_published_target_is_protected(self, plan):
        state = PublicationState.with_participants(plan, [65001])
        assert state.validate(Prefix.parse("10.0.0.0/16"), 64999) is ValidationState.INVALID
        assert state.validate(Prefix.parse("10.0.0.0/16"), 65001) is ValidationState.VALID

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
        assert table.validate(Prefix.parse("10.1.0.0/16"), 64999) is ValidationState.NOT_FOUND
        assert table.validate(Prefix.parse("10.0.0.0/16"), 64999) is ValidationState.INVALID
