"""Unit tests for the lab's convergence cache and baseline-sharing safety.

Covers the cache's contract end to end: one entry per origin node,
eviction in LRU order at the capacity bound, clones of a lab sharing its
entries, and — the property everything else rests on — a hijack pass
computed on top of a cached baseline never mutates it (checksum
before/after, plus the freeze() hard guarantee and an order-independence
regression test).
"""

from __future__ import annotations

import pytest

from repro.attacks import lab as lab_module
from repro.attacks.lab import CacheStats, ConvergenceCache, HijackLab
from repro.bgp.engine import RouteState, RoutingEngine
from repro.defense.deployment import Defense
from repro.oracle.invariants import InvariantViolation, check_cache_coherence
from repro.topology.view import RoutingView
from tests.route_cells import set_route


@pytest.fixture
def engine(mini_view: RoutingView) -> RoutingEngine:
    return RoutingEngine(mini_view)


def cached_origins(cache: ConvergenceCache) -> set[int]:
    return {origin for origin, _entry in cache.entries()}


class TestKeying:
    def test_hit_returns_same_object(self, engine):
        cache = ConvergenceCache(engine)
        first = cache.baseline(0)
        second = cache.baseline(0)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_origins_are_distinct_entries(self, engine):
        cache = ConvergenceCache(engine)
        a = cache.baseline(0)
        b = cache.baseline(1)
        assert a is not b
        assert a.origin == 0 and b.origin == 1
        assert len(cache) == 2

    def test_defense_clone_hits_its_parents_entry(self, mini_graph):
        """Legitimate routing does not depend on the defense, so a
        with_defense clone reuses the baseline its parent converged."""
        lab = HijackLab(mini_graph, seed=1)
        lab.origin_hijack(target_asn=50, attacker_asn=60)
        lab.with_defense(Defense(stub_filter=True)).origin_hijack(
            target_asn=50, attacker_asn=60
        )
        assert lab.cache.stats.misses == 1 and lab.cache.stats.hits == 1


class TestEviction:
    def test_capacity_bound_holds(self, engine, monkeypatch):
        monkeypatch.setattr(lab_module, "CACHE_CAPACITY", 4)
        cache = ConvergenceCache(engine)
        for origin in range(8):
            cache.baseline(origin)
        assert len(cache) == 4
        assert cache.stats.evictions == 4

    def test_lru_order(self, engine, monkeypatch):
        monkeypatch.setattr(lab_module, "CACHE_CAPACITY", 2)
        cache = ConvergenceCache(engine)
        cache.baseline(0)
        cache.baseline(1)
        cache.baseline(0)  # refresh 0 → 1 is now the LRU entry
        cache.baseline(2)  # evicts 1
        assert cached_origins(cache) == {0, 2}

    def test_evicted_entry_recomputes_identically(self, engine, monkeypatch):
        monkeypatch.setattr(lab_module, "CACHE_CAPACITY", 1)
        cache = ConvergenceCache(engine)
        checksum = cache.baseline(0).checksum()
        cache.baseline(1)
        assert cached_origins(cache) == {1}
        assert cache.baseline(0).checksum() == checksum

    def test_stats_shape(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0


class TestBaselineSharing:
    """The bugfix regression layer: cached baselines are immutable."""

    def test_hijack_pass_leaves_baseline_untouched(self, engine):
        baseline = ConvergenceCache(engine).baseline(0)
        checksum = baseline.checksum()
        engine.hijack(0, 5, legitimate=baseline)
        engine.converge(7, base=baseline)
        assert baseline.checksum() == checksum

    def test_cached_baselines_are_frozen(self, engine):
        baseline = ConvergenceCache(engine).baseline(0)
        assert baseline.is_frozen
        with pytest.raises(TypeError):
            set_route(baseline, 0, cls=0)
        with pytest.raises(TypeError):
            set_route(baseline, 3, origin_of=99)

    def test_two_hijacks_from_one_baseline_do_not_contaminate(self, engine):
        """The same baseline must serve any number of attacks in any order."""
        baseline = ConvergenceCache(engine).baseline(0)
        first_then_second = (
            engine.hijack(0, 4, legitimate=baseline).polluted_nodes,
            engine.hijack(0, 6, legitimate=baseline).polluted_nodes,
        )
        second_then_first = (
            engine.hijack(0, 6, legitimate=baseline).polluted_nodes,
            engine.hijack(0, 4, legitimate=baseline).polluted_nodes,
        )
        fresh = RoutingEngine(engine.view)
        independent = (
            fresh.hijack(0, 4).polluted_nodes,
            fresh.hijack(0, 6).polluted_nodes,
        )
        assert first_then_second == (second_then_first[1], second_then_first[0])
        assert first_then_second == independent

    def test_verify_mode_detects_mutation(self, mini_view):
        """A validating engine's cache re-checks the insert checksum on
        every hit."""
        cache = ConvergenceCache(RoutingEngine(mini_view, validate=True))
        baseline = cache.baseline(0)
        assert cache.baseline(0) is baseline  # clean hit passes
        # Simulate a buggy caller writing through the freeze guard.
        baseline.routes = list(baseline.routes)
        set_route(baseline, 1, length=baseline.route(1)[1] + 1)
        with pytest.raises(RuntimeError, match="mutated"):
            cache.baseline(0)

    def test_entries_record_checksums_only_when_validating(self, mini_view):
        """A validating engine's cache stores the insert-time checksum —
        what whole-cache coherence audits compare against."""
        cache = ConvergenceCache(RoutingEngine(mini_view, validate=True))
        state = cache.baseline(0)
        [(origin, (cached, checksum))] = cache.entries()
        assert origin == 0
        assert cached is state
        assert checksum == state.checksum()
        check_cache_coherence(cache)  # a clean cache audits silently

    def test_unvalidated_insert_computes_no_checksum(self, engine, monkeypatch):
        """Without validation a baseline insert pays for no checksum (one
        is ~17 ms at 42,697 ASes); the freeze is the guard, and the audit
        still checks it."""
        calls = []
        checksum = RouteState.checksum
        monkeypatch.setattr(
            RouteState, "checksum", lambda state: calls.append(state) or checksum(state)
        )
        cache = ConvergenceCache(engine)
        state = cache.baseline(0)
        assert cache.baseline(0) is state
        assert calls == []
        [(_origin, (cached, recorded))] = cache.entries()
        assert cached is state and recorded is None
        check_cache_coherence(cache)
        assert calls == []
        state.routes = list(state.routes)  # thawed behind the cache's back
        with pytest.raises(InvariantViolation, match="not frozen"):
            check_cache_coherence(cache)

    def test_freeze_is_idempotent_and_copyable(self, engine):
        state = engine.converge(0)
        frozen = state.freeze().freeze()
        copy = frozen.copy_for(frozen.origin)
        assert not copy.is_frozen
        set_route(copy, 0, cls=0)  # the copy is writable again
        assert frozen.checksum() != RouteState.empty(len(engine.view), 0).checksum()
