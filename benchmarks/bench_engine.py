"""Engine performance: why sweeps run on the engine, not the flood.

The paper's sweeps attack one target from every other AS. These benches
measure the fast engine's single-hijack latency (with the legitimate state
amortized, as sweeps do), the same attack through the generation-stepped
reference flood, and the legitimate-convergence cost — quantifying the
speedup that makes exhaustive sweeps practical.
"""

import pytest

from repro.bgp.engine import RoutingEngine
from repro.oracle.reference import ReferenceSimulator
from repro.topology.view import RoutingView
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def setup(suite):
    view = RoutingView.from_graph(suite.graph)
    engine = RoutingEngine(view)
    rng = make_rng(17, "engine-bench")
    target, attacker = rng.sample(range(len(view)), 2)
    legit = engine.converge(target)
    return view, engine, target, attacker, legit


def test_engine_legitimate_convergence(benchmark, setup):
    view, engine, target, _attacker, _legit = setup
    state = benchmark(engine.converge, target)
    assert all(state.has_route(node) for node in range(len(view)))


def test_engine_hijack_amortized(benchmark, setup):
    """Per-attack cost in a sweep (legitimate state precomputed)."""
    view, engine, target, attacker, legit = setup

    result = benchmark(
        engine.hijack, target, attacker, legitimate=legit
    )
    assert result.final.origin == attacker


def test_simulator_full_hijack(benchmark, setup):
    """The same attack through the generation-stepped reference flood."""
    view, _engine, target, attacker, legit = setup
    flood = ReferenceSimulator(view)

    table = benchmark.pedantic(
        flood.hijack, args=(target, attacker), rounds=1, iterations=1
    )
    # Cross-check against the engine while we are at it.
    engine_result = RoutingEngine(view).hijack(target, attacker, legitimate=legit)
    assert flood.holders_of(table, attacker) == engine_result.polluted_nodes


def test_engine_sweep_throughput(benchmark, setup):
    """A 100-attacker mini-sweep: the workload unit of Figs. 2-6."""
    view, engine, target, _attacker, legit = setup
    rng = make_rng(18, "engine-sweep")
    attackers = [a for a in rng.sample(range(len(view)), 101) if a != target][:100]

    def sweep():
        return [
            len(engine.hijack(target, a, legitimate=legit).polluted_nodes)
            for a in attackers
        ]

    counts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(counts) == 100
