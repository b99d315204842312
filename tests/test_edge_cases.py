"""Edge-case coverage across modules: guards, empties, formatting corners."""

import pytest

from repro.bgp.convergence import ConvergenceStats
from repro.bgp.engine import RouteState, RoutingEngine
from repro.registry.history import HistoricalAuthority
from repro.registry.roa import ValidationState
from repro.prefixes.prefix import Prefix
from repro.viz.charts import Series, line_chart
from repro.viz.svg import SvgCanvas


class TestRouteStateGuards:
    def test_copy_for_is_independent(self, mini_view):
        engine = RoutingEngine(mini_view)
        original = engine.converge(mini_view.node_of(50))
        clone = original.copy_for(origin=0)
        clone.cls[0] = 0
        clone.length[0] = 0
        assert original.cls != clone.cls or original.length != clone.length

    def test_parent_cycle_detected(self):
        state = RouteState.empty(3, origin=0)
        state.parent[1] = 2
        state.parent[2] = 1
        with pytest.raises(RuntimeError, match="cycle"):
            state.path_from(1)

    def test_holders_of_empty_state(self):
        state = RouteState.empty(4, origin=0)
        assert state.holders_of(0) == frozenset()


class TestConvergenceStatsEdges:
    def test_empty_stats(self):
        stats = ConvergenceStats(samples=0, histogram={})
        assert stats.mean == 0.0
        assert stats.maximum == 0
        assert stats.within(1, 10) == 0.0

    def test_within_partial_band(self):
        stats = ConvergenceStats(samples=4, histogram={3: 2, 8: 1, 12: 1})
        assert stats.within(1, 5) == 0.5
        assert stats.within(5, 10) == 0.25
        assert stats.within(1, 12) == 1.0


class TestHistoricalAuthorityWalk:
    def test_nested_observations_any_level_authorizes(self):
        history = HistoricalAuthority()
        history.observe(Prefix.parse("10.0.0.0/8"), 65000)
        history.observe(Prefix.parse("10.1.0.0/16"), 65001)
        # The /24 is covered by both; either observed origin is VALID.
        sub = Prefix.parse("10.1.2.0/24")
        assert history.validate(sub, 65000) is ValidationState.VALID
        assert history.validate(sub, 65001) is ValidationState.VALID
        assert history.validate(sub, 64999) is ValidationState.INVALID

    def test_known_origins_exact_only(self):
        history = HistoricalAuthority()
        history.observe(Prefix.parse("10.0.0.0/8"), 65000)
        assert history.known_origins(Prefix.parse("10.0.0.0/8")) == frozenset({65000})
        assert history.known_origins(Prefix.parse("10.1.0.0/16")) == frozenset()


class TestVizEdges:
    def test_single_point_series_renders_marker(self):
        canvas = line_chart(
            [Series.from_pairs("one", [(3, 5)])],
            title="t", x_label="x", y_label="y",
        )
        assert "<circle" in canvas.to_string()

    def test_rotated_text(self):
        canvas = SvgCanvas(50, 50)
        canvas.text(10, 10, "v", rotate=-90.0)
        assert "rotate(-90" in canvas.to_string()

    def test_dash_pattern(self):
        canvas = SvgCanvas(50, 50)
        canvas.polyline([(0, 0), (10, 10)], dash="4 2")
        assert 'stroke-dasharray="4 2"' in canvas.to_string()


class TestEngineBlockedOriginIsIgnored:
    def test_origin_cannot_be_blocked(self, mini_view):
        # Blocking the announcing origin itself must not suppress the
        # announcement (blockers act on *received* routes only).
        engine = RoutingEngine(mini_view)
        origin = mini_view.node_of(50)
        state = engine.converge(origin, blocked=[origin])
        assert state.holders_of(origin)
