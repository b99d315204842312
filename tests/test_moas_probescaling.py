"""Unit tests for MOAS classification and anycast catchments."""

import pytest

from repro.bgp.engine import RoutingEngine
from repro.detection.moas import MoasVerdict
from repro.detection.taxonomy import PathObservation, classify_observations
from repro.prefixes.prefix import Prefix
from repro.registry.roa import RoaTable, RouteOriginAuthorization


def p(text: str) -> Prefix:
    return Prefix.parse(text)


def conflict(authority, prefix: Prefix, origins):
    """An origin-only MOAS conflict: one single-hop claim per origin."""
    return classify_observations(
        prefix, [PathObservation((origin,)) for origin in origins],
        authority=authority,
    )


class TestClassifyMoas:
    """Origin-only conflicts, judged by the one path-aware judge."""

    @pytest.fixture
    def authority(self) -> RoaTable:
        return RoaTable([
            RouteOriginAuthorization(p("10.0.0.0/16"), 65001),
            RouteOriginAuthorization(p("10.0.0.0/16"), 65002),
        ])

    def test_authorized_moas_is_anycast(self, authority):
        report = conflict(authority, p("10.0.0.0/16"), [65001, 65002])
        assert report.verdict is MoasVerdict.LEGITIMATE_ANYCAST
        assert not report.alarm
        assert report.culprit_paths == ()

    def test_unauthorized_origin_is_hijack(self, authority):
        report = conflict(authority, p("10.0.0.0/16"), [65001, 64999])
        assert report.verdict is MoasVerdict.HIJACK
        assert report.invalid_origins == (64999,)
        assert report.culprit_paths == ((64999,),)
        assert report.alarm

    def test_unpublished_space_unverifiable(self, authority):
        report = conflict(authority, p("99.0.0.0/16"), [65001, 65002])
        assert report.verdict is MoasVerdict.UNVERIFIABLE
        assert report.alarm  # noisy alarm — the cost of not publishing

    def test_no_authority_unverifiable(self):
        report = conflict(None, p("10.0.0.0/16"), [65001, 65002])
        assert report.verdict is MoasVerdict.UNVERIFIABLE

    def test_origins_deduplicated_and_sorted(self, authority):
        report = conflict(authority, p("10.0.0.0/16"), [65002, 65001, 65002])
        assert report.origins == (65001, 65002)


class TestAnycastState:
    """A legitimate multi-origin prefix: the second origin's announcement
    competes with the first under the normal preference rule."""

    @staticmethod
    def anycast(view, a, b):
        engine = RoutingEngine(view)
        return engine.converge(b, base=engine.converge(a))

    def test_catchments_partition_topology(self, mini_view):
        a = mini_view.node_of(50)
        b = mini_view.node_of(60)
        state = self.anycast(mini_view, a, b)
        catchment_a = state.holders_of(a)
        catchment_b = state.holders_of(b)
        assert catchment_a & catchment_b == frozenset()
        assert len(catchment_a) + len(catchment_b) == len(mini_view) - 2

    def test_each_side_keeps_its_vicinity(self, mini_view):
        a = mini_view.node_of(50)
        b = mini_view.node_of(60)
        state = self.anycast(mini_view, a, b)
        # 30 is 50's provider: stays with 50. 40 is 60's provider.
        assert mini_view.node_of(30) in state.holders_of(a)
        assert mini_view.node_of(40) in state.holders_of(b)
