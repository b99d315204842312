"""The batched kernel is checksum-identical to N independent passes.

The batched contract (``docs/performance.md``): ``converge_batch`` over
K origins — fresh or stacked on a shared base, with per-column blocked
sets, stub-filter flags and claimed-path padding — must produce
bit-for-bit the same :meth:`RouteState.checksum` per column as K
independent ``converge`` calls on the *reference* engine, on both
backends (the reference backend's batch is exactly that loop). Likewise
``converge_delta_batch`` must record per-column undo journals identical
entry-for-entry to K reference ``converge_delta`` passes, and reverting
them must land back on the base they were applied to, rung after rung.

The expectation is always the reference engine's: on the array backend
a single-origin ``converge`` is the K=1 column of the same fused kernel,
so comparing a batch with it would compare the kernel with itself.
Batch widths are drawn from 1 upward, so K=1 is covered.

At the default ``REPRO_FUZZ_MULTIPLIER`` the file checks well over 150
generated cases per run — the batched differential battery the ISSUE's
acceptance bar names.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.detection.taxonomy import grid_cells
from repro.registry.publication import PublicationState
from repro.topology.relationships import Relationship

from tests.strategies import (
    deployment_vectors,
    example_budget,
    hierarchical_topologies,
    hijack_cases,
    taxonomy_scenarios,
)


def _engines(case):
    reference = RoutingEngine(case.view, case.policy)
    array = RoutingEngine(case.view, case.policy, backend="array")
    return reference, array


def _draw_columns(data, case, widths=None):
    """Per-column batch knobs: origins with blocking, filtering, padding;
    a width from 1 to 5, or one of *widths*."""
    n = len(case.view)
    nodes = st.integers(min_value=0, max_value=n - 1)
    count = data.draw(
        st.integers(min_value=1, max_value=5) if widths is None else st.sampled_from(widths),
        label="batch width",
    )
    origins = data.draw(
        st.lists(nodes, min_size=count, max_size=count), label="origins"
    )
    blocked_sets = [
        frozenset(data.draw(st.sets(nodes, max_size=max(0, n // 2)))) - {origin}
        for origin in origins
    ]
    first_hop_flags = data.draw(
        st.lists(st.booleans(), min_size=count, max_size=count)
    )
    origin_lengths = data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=count, max_size=count)
    )
    return origins, blocked_sets, first_hop_flags, origin_lengths


@settings(max_examples=example_budget(60), deadline=None)
@given(hijack_cases(), st.data())
def test_fresh_batch_matches_independent_converges(case, data):
    """A fresh ``converge_batch`` over K random columns — mixed blocked
    sets, stub filters and claimed-path padding per column — hashes
    identically to K independent ``converge`` calls on both backends,
    and the two backends agree with each other."""
    origins, blocked_sets, first_hop_flags, origin_lengths = _draw_columns(data, case)
    reference, array = _engines(case)
    expected = [
        reference.converge(
            origin,
            blocked=blocked,
            filter_first_hop_providers=first_hop,
            origin_length=length,
        ).checksum()
        for origin, blocked, first_hop, length in zip(
            origins, blocked_sets, first_hop_flags, origin_lengths
        )
    ]
    for engine in (reference, array):
        batch = engine.converge_batch(
            origins,
            blocked_sets=blocked_sets,
            first_hop_flags=first_hop_flags,
            origin_lengths=origin_lengths,
        )
        assert [state.checksum() for state in batch] == expected
        assert [state.origin for state in batch] == origins


@settings(max_examples=example_budget(40), deadline=None)
@given(hijack_cases(), st.data())
def test_shared_base_batch_matches_stacked_converges(case, data):
    """K attacker columns stacked on one shared legitimate baseline — the
    sweep workload — hash identically to K reference ``converge(base=...)``
    calls, on both backends, without mutating the shared base."""
    origins, blocked_sets, first_hop_flags, origin_lengths = _draw_columns(data, case)
    reference, array = _engines(case)
    reference_base = reference.converge(
        case.target, filter_first_hop_providers=case.first_hop_filtered
    )
    expected = [
        reference.converge(
            origin,
            base=reference_base,
            blocked=blocked,
            filter_first_hop_providers=first_hop,
            origin_length=length,
        ).checksum()
        for origin, blocked, first_hop, length in zip(
            origins, blocked_sets, first_hop_flags, origin_lengths
        )
    ]
    for engine in (reference, array):
        base = engine.converge(
            case.target, filter_first_hop_providers=case.first_hop_filtered
        )
        base_sum = base.checksum()
        assert base_sum == reference_base.checksum()
        batch = engine.converge_batch(
            origins,
            base=base,
            blocked_sets=blocked_sets,
            first_hop_flags=first_hop_flags,
            origin_lengths=origin_lengths,
        )
        assert [state.checksum() for state in batch] == expected
        assert base.checksum() == base_sum


@settings(max_examples=example_budget(40), deadline=None)
@given(hijack_cases(), st.data())
def test_batch_holders_match_scalar_holders(case, data):
    """``converge_batch(...).holders(i)`` — read off the key grid on the
    array backend, without building column *i*'s state — is exactly the
    scalar pass's holders (``origin_of == origin``, the origin left out),
    sorted, on both backends: fresh and stacked on a shared base, with
    per-column blocked sets, stub filters and claimed-path padding, at
    widths 1, 3 and 16 (origins may repeat, and may be the base's own
    origin, whose routes the base already holds)."""
    origins, blocked_sets, first_hop_flags, origin_lengths = _draw_columns(
        data, case, widths=(1, 3, 16)
    )
    shared = data.draw(st.booleans(), label="shared base")
    reference, array = _engines(case)
    reference_base = (
        reference.converge(case.target, filter_first_hop_providers=case.first_hop_filtered)
        if shared
        else None
    )
    expected = [
        sorted(
            reference.converge(
                origin,
                base=reference_base,
                blocked=blocked,
                filter_first_hop_providers=first_hop,
                origin_length=length,
            ).holders_of(origin)
        )
        for origin, blocked, first_hop, length in zip(
            origins, blocked_sets, first_hop_flags, origin_lengths
        )
    ]
    for engine in (reference, array):
        base = (
            engine.converge(case.target, filter_first_hop_providers=case.first_hop_filtered)
            if shared
            else None
        )
        batch = engine.converge_batch(
            origins,
            base=base,
            blocked_sets=blocked_sets,
            first_hop_flags=first_hop_flags,
            origin_lengths=origin_lengths,
        )
        assert [batch.holders(col).tolist() for col in range(len(origins))] == expected


@settings(max_examples=example_budget(30), deadline=None)
@given(taxonomy_scenarios(), st.data())
def test_taxonomy_cells_match_unbatched_lab(case, data):
    """Every attack-grid cell, plus sibling scenarios against the same
    target, runs through a batched array lab with outcomes identical to
    the unbatched reference lab — same claimed paths, same polluted
    sets, in the caller's scenario order."""
    graph, scenario = case
    batch_width = data.draw(st.integers(min_value=2, max_value=4), label="width")
    ref_lab = HijackLab(graph, seed=0)
    arr_lab = HijackLab(graph, seed=0, backend="array", batch_origins=batch_width)
    target_node = arr_lab.view.node_of(scenario.target_asn)
    extra = [
        asn
        for asn in sorted(graph.asns())
        if asn not in (scenario.target_asn, scenario.attacker_asn)
        and arr_lab.view.node_of(asn) != target_node
    ][:3]
    scenarios = [scenario] + [
        arr_lab.build_scenario(scenario.target_asn, attacker) for attacker in extra
    ]
    ref_outcomes = [ref_lab.run_scenario(entry) for entry in scenarios]
    arr_outcomes = arr_lab.run_scenarios(scenarios)
    assert len(arr_outcomes) == len(ref_outcomes)
    for ref_outcome, arr_outcome in zip(ref_outcomes, arr_outcomes):
        assert ref_outcome.claimed_path == arr_outcome.claimed_path
        assert ref_outcome.polluted_asns == arr_outcome.polluted_asns
        assert ref_outcome.address_fraction == arr_outcome.address_fraction


@settings(max_examples=example_budget(30), deadline=None)
@given(hijack_cases(), st.data())
def test_warm_start_journal_parity_across_rungs(case, data):
    """Rungs applied and rewound in place: ``converge_delta_batch`` over K
    columns records the same journals as K scalar ``converge_delta``
    passes, reverting lands every column back on the shared base, and a
    second adjacent rung applied to the reverted states equals that
    rung's cold convergence — on both backends, against the reference
    engine's scalar passes."""
    origins, blocked_sets, first_hop_flags, origin_lengths = _draw_columns(data, case)
    asns = sorted(case.graph.asns())
    rungs = [
        frozenset(
            case.view.node_of(asn)
            for asn in data.draw(deployment_vectors(asns)).deployers
        )
        for _ in range(2)
    ]
    reference, array = _engines(case)
    reference_base = reference.converge(case.target)
    for engine in (reference, array):
        base = engine.converge(case.target)
        assert base.checksum() == reference_base.checksum()
        base_sums = [base.copy_for(origin).checksum() for origin in origins]
        states = [base.copy_for(origin) for origin in origins]
        for rung in rungs:
            rung_blocked = [
                (blocked | rung) - {origin}
                for origin, blocked in zip(origins, blocked_sets)
            ]
            deltas = engine.converge_delta_batch(
                states,
                origins,
                blocked_sets=rung_blocked,
                first_hop_flags=first_hop_flags,
                origin_lengths=origin_lengths,
            )
            for index, origin in enumerate(origins):
                cold = reference.converge(
                    origin,
                    base=reference_base,
                    blocked=rung_blocked[index],
                    filter_first_hop_providers=first_hop_flags[index],
                    origin_length=origin_lengths[index],
                )
                scalar_state = reference_base.copy_for(origin)
                scalar_delta = reference.converge_delta(
                    scalar_state,
                    origin,
                    blocked=rung_blocked[index],
                    filter_first_hop_providers=first_hop_flags[index],
                    origin_length=origin_lengths[index],
                )
                assert deltas[index].records() == scalar_delta.records()
                assert states[index].checksum() == cold.checksum()
            for index, delta in enumerate(deltas):
                delta.revert(states[index])
                assert states[index].checksum() == base_sums[index]


@st.composite
def _sibling_topologies(draw):
    """A hierarchical topology with a few extra sibling links, so several
    routing nodes stand for more than one ASN (groups can chain)."""
    graph = draw(hierarchical_topologies(min_size=6, max_size=24))
    asns = st.sampled_from(sorted(graph.asns()))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        a, b = draw(asns), draw(asns)
        if a != b and graph.relationship(a, b) is None:
            graph.add_relationship(a, b, Relationship.SIBLING)
    return graph


def _check_every_scored_state(lab, checked):
    """Wrap the lab's outcome assembly so every attack it scores is
    recorded with the set-based definition it replaced, taken at scoring
    time: ``view.expand`` of the holder nodes minus the attacker and
    ``plan.fraction_owned`` of it. The count and the fraction are checked
    there, before anything expands the outcome's ASN set; the set itself
    is compared only once the caller's whole run is over (and the holder
    nodes across backends, where the reference reads eager states)."""
    view, plan, assemble = lab.view, lab.plan, lab._outcome

    def checking(scenario, claimed, holders=None, *rest):
        expected = None
        if holders is not None:
            attacker_node = view.node_of(scenario.attacker_asn)
            assert attacker_node not in holders.tolist()
            expected = view.expand(holders.tolist()) - set(
                view.members[attacker_node]
            )
        outcome = assemble(scenario, claimed, holders, *rest)
        if expected is not None:
            assert "polluted_asns" not in vars(outcome)
            assert not outcome.polluted_nodes.flags.writeable
            assert outcome.pollution_count == len(expected)
            # == on the float: one integer sum, one division, on both sides.
            assert outcome.address_fraction == plan.fraction_owned(expected)
            checked.append((outcome, expected))
        return outcome

    lab._outcome = checking


@settings(max_examples=example_budget(25), deadline=None)
@given(_sibling_topologies(), st.data())
def test_outcome_assembly_matches_set_expansion(graph, data):
    """On sibling-rich topologies, for every attack-grid cell and a
    deployment ladder, on both backends: every outcome's count and
    address fraction equal the set-based definition at scoring time, its
    ``polluted_asns`` equals that set once the whole run is over (an
    outcome aliases no mutable state), and the two backends' outcomes
    agree."""
    reference = HijackLab(graph, seed=0)
    array = HijackLab(graph, seed=0, backend="array", batch_origins=3)
    view = reference.view
    asns = sorted(graph.asns())
    target_asn = data.draw(st.sampled_from(asns), label="target")
    attackers = [
        asn for asn in asns if view.node_of(asn) != view.node_of(target_asn)
    ]
    if not attackers:
        return  # every AS collapsed into the target's sibling group
    attacker_asn = data.draw(st.sampled_from(attackers), label="attacker")
    depth = data.draw(st.integers(min_value=1, max_value=3), label="depth")
    ladder = [data.draw(deployment_vectors(asns)) for _ in range(2)]
    authority = PublicationState.full(reference.plan).table()
    results = []
    for lab in (reference, array):
        checked: list = []
        _check_every_scored_state(lab, checked)
        scenarios = [
            lab.build_scenario(
                target_asn, attacker_asn, kind=kind, path_kind=path_kind,
                forged_depth=depth,
            )
            for kind, path_kind in grid_cells()
        ]
        outcomes = lab.run_scenarios(scenarios)
        launched = sum(outcome.claimed_path is not None for outcome in outcomes)
        rungs = lab.sweep_deployments(
            target_asn, ladder, authority, transit_only=False
        )
        assert len(checked) == launched + sum(len(rung) for rung in rungs)
        for outcome, expected in checked:
            assert outcome.polluted_asns == expected
            assert outcome.pollution_count == len(outcome.polluted_asns)
        results.append(
            [
                (outcome.polluted_asns, outcome.address_fraction)
                for outcome in (*outcomes, *(o for rung in rungs for o in rung.values()))
            ]
        )
    assert results[0] == results[1]
