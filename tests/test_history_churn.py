"""Unit tests for historical origin data and the churn study."""

import pytest

from repro.core.churn import TransferEvent, sample_transfers, stale_history_study
from repro.defense.strategies import custom_deployment
from repro.prefixes.prefix import Prefix
from repro.registry.history import HistoricalAuthority
from repro.registry.publication import PublicationState
from repro.registry.roa import ValidationState


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestHistoricalAuthority:
    @pytest.fixture
    def history(self) -> HistoricalAuthority:
        history = HistoricalAuthority()
        history.observe(p("10.0.0.0/16"), 65001)
        history.observe(p("10.1.0.0/16"), 65002)
        return history

    def test_known_origin_valid(self, history):
        assert history.validate(p("10.0.0.0/16"), 65001) is ValidationState.VALID

    def test_contradicting_origin_invalid(self, history):
        assert history.validate(p("10.0.0.0/16"), 64999) is ValidationState.INVALID

    def test_subprefix_of_observed_space_judged(self, history):
        # History covers the /16, so a /17 announcement is judged by it.
        assert history.validate(p("10.0.0.0/17"), 65001) is ValidationState.VALID
        assert history.validate(p("10.0.0.0/17"), 64999) is ValidationState.INVALID

    def test_never_observed_space_not_found(self, history):
        assert history.validate(p("99.0.0.0/8"), 65001) is ValidationState.NOT_FOUND

    def test_multiple_observed_origins_all_valid(self, history):
        history.observe(p("10.0.0.0/16"), 65077)
        assert history.validate(p("10.0.0.0/16"), 65077) is ValidationState.VALID
        assert history.validate(p("10.0.0.0/16"), 65001) is ValidationState.VALID

    def test_forget(self, history):
        history.forget(p("10.0.0.0/16"), 65001)
        assert history.validate(p("10.0.0.0/16"), 65001) is ValidationState.NOT_FOUND
        with pytest.raises(KeyError):
            history.forget(p("10.0.0.0/16"), 65001)

    def test_from_plan_covers_all_allocations(self, medium_lab):
        history = HistoricalAuthority.from_plan(medium_lab.plan)
        for asn in list(medium_lab.plan.all_asns())[:20]:
            prefix = medium_lab.plan.primary_prefix(asn)
            assert history.validate(prefix, asn) is ValidationState.VALID

    def test_len_counts_prefixes(self, history):
        assert len(history) == 2


class TestStaleHistoryStudy:
    @pytest.fixture(scope="class")
    def events(self, medium_lab):
        return sample_transfers(medium_lab, 8, seed=3)

    def test_sample_transfers_shape(self, medium_lab, events):
        assert len(events) == 8
        for event in events:
            assert event.old_asn != event.new_asn
            assert medium_lab.plan.origin_of(event.prefix) == event.old_asn

    def test_stale_history_raises_false_positives(self, medium_lab, events):
        impacts = stale_history_study(medium_lab, events)
        assert all(impact.false_positive for impact in impacts)
        # Detection-only (no blocking strategy): nothing is blackholed.
        assert all(impact.blackholed_asns == 0 for impact in impacts)

    def test_blocking_on_stale_history_blackholes(self, medium_lab, events):
        from repro.defense.strategies import top_degree_deployment

        strategy = top_degree_deployment(medium_lab.graph, 40)
        impacts = stale_history_study(
            medium_lab, events, blocking_strategy=strategy
        )
        assert any(impact.blackholed_asns > 0 for impact in impacts)
        for impact in impacts:
            assert 0.0 <= impact.blackholed_fraction <= 1.0

    def test_updated_registry_is_churn_proof(self, medium_lab, events):
        # The new owners re-publish after the transfer (Section VII
        # discipline): build an authority that includes their new ROAs.
        publication = PublicationState.full(medium_lab.plan)
        table = publication.table()
        from repro.registry.roa import RouteOriginAuthorization

        for event in events:
            table.add(RouteOriginAuthorization(event.prefix, event.new_asn))
        impacts = stale_history_study(
            medium_lab,
            events,
            blocking_strategy=custom_deployment("all", medium_lab.graph.asns()),
            authority=table,
        )
        assert all(not impact.false_positive for impact in impacts)
        assert all(impact.blackholed_asns == 0 for impact in impacts)

    def test_explicit_event(self, medium_lab):
        owner = medium_lab.plan.all_asns()[0]
        new = next(
            asn
            for asn in medium_lab.plan.all_asns()
            if medium_lab.view.node_of(asn) != medium_lab.view.node_of(owner)
        )
        event = TransferEvent(
            prefix=medium_lab.plan.primary_prefix(owner),
            old_asn=owner,
            new_asn=new,
        )
        impacts = stale_history_study(medium_lab, [event])
        assert impacts[0].verdict is ValidationState.INVALID
