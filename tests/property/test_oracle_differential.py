"""Differential properties: the production engine against the oracle.

The reference simulator in :mod:`repro.oracle.reference` re-derives the
paper's routing model from the text, importing nothing from
``repro.bgp``; agreement here means two independent transcriptions of
Section III compute the same stable states. The properties cover the
bare engine (legitimate convergence and two-phase hijacks, blocking and
stub-filter variants included) and the full production stack — a
:class:`HijackLab` sweep through the convergence cache, cold and hot.

Budgets are scaled by ``REPRO_FUZZ_MULTIPLIER`` (see docs/testing.md);
at the default multiplier the suite checks well over 200 generated
(topology, scenario) pairs per run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.oracle import ReferenceSimulator, random_hijack_cases
from repro.oracle.differential import assert_states_agree, run_differential

from tests.strategies import (
    example_budget,
    hierarchical_topologies,
    hijack_cases,
    routing_views,
)


@settings(max_examples=example_budget(150), deadline=None)
@given(hijack_cases())
def test_hijack_matches_oracle(case):
    """Both phases of a hijack — with random blocking, policy variants and
    the stub filter — agree with the reference on every node's installed
    (origin, class, length) and on the polluted set."""
    engine = RoutingEngine(case.view, case.policy)
    oracle = ReferenceSimulator(
        case.view, tier1_shortest_path=case.policy.tier1_shortest_path
    )
    result = engine.hijack(
        case.target,
        case.attacker,
        blocked=case.blocked,
        filter_first_hop_providers=case.first_hop_filtered,
    )
    assert_states_agree(
        case.view, result.legitimate, oracle.converge(case.target),
        context="legitimate",
    )
    oracle_final = oracle.hijack(
        case.target,
        case.attacker,
        blocked=case.blocked,
        filter_first_hop_providers=case.first_hop_filtered,
    )
    assert_states_agree(case.view, result.final, oracle_final, context="final")
    assert result.polluted_nodes == ReferenceSimulator.holders_of(
        oracle_final, case.attacker
    )


@settings(max_examples=example_budget(60), deadline=None)
@given(routing_views(), st.data())
def test_legitimate_convergence_matches_oracle(view, data):
    origin = data.draw(st.integers(min_value=0, max_value=len(view) - 1),
                       label="origin")
    state = RoutingEngine(view).converge(origin)
    assert_states_agree(view, state, ReferenceSimulator(view).converge(origin))


@settings(max_examples=example_budget(8), deadline=None)
@given(hierarchical_topologies(min_size=12), st.data())
def test_lab_sweep_matches_oracle(graph, data):
    """The full production stack — lab and convergence cache — pollutes
    exactly the ASes the oracle predicts, cache cold and hot."""
    asns = sorted(graph.asns())
    target = data.draw(st.sampled_from(asns), label="target")
    lab = HijackLab(graph, seed=3, validate=True)
    view = lab.view
    oracle = ReferenceSimulator(view)
    for _pass in ("cold", "hot"):
        outcomes = lab.sweep_target(target)
        for attacker_asn, outcome in outcomes.items():
            table = oracle.hijack(
                view.node_of(target), view.node_of(attacker_asn)
            )
            expected = view.expand(
                ReferenceSimulator.holders_of(table, view.node_of(attacker_asn))
            ) - {attacker_asn}
            assert outcome.polluted_asns == expected, attacker_asn
    lab.cache.verify_coherence()


def test_runtime_case_generator_is_deterministic_and_counted():
    """The Hypothesis-free runtime path (``repro-bgp validate``) draws a
    reproducible case stream and checks exactly the requested count."""
    first = list(random_hijack_cases(5, seed=42))
    second = list(random_hijack_cases(5, seed=42))
    assert [(c.target, c.attacker, c.blocked) for c in first] == [
        (c.target, c.attacker, c.blocked) for c in second
    ]
    assert run_differential(random_hijack_cases(25, seed=9)) == 25
