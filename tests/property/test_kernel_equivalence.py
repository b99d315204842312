"""The array backend is checksum-identical to the reference kernel.

The backend contract (``docs/model.md``): ``backend="array"`` must
produce bit-for-bit the same :meth:`RouteState.checksum` as
``backend="reference"`` on every topology, origin, blocked set and
policy variant — it is a wall-clock knob, never a result knob. These
properties drive both kernels over generated hijack scenarios (two-phase
attacks with blocking and the stub filter), over announce/withdraw
chains through :meth:`RoutingEngine.converge_delta` (whose undo journal
must match entry for entry, and whose revert must land both backends on
the same state), over the ``engine.*`` counters each pass emits, and
over the full :class:`HijackLab` stack.

At the default ``REPRO_FUZZ_MULTIPLIER`` the file checks well over 200
generated cases per run — the differential battery the ISSUE's
acceptance bar names.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.detection.detector import HijackDetector
from repro.detection.probes import top_degree_probes
from repro.obs.metrics import Metrics
from repro.registry.neighbors import NeighborRegistry
from repro.registry.publication import PublicationState

from tests.strategies import (
    announce_withdraw_sequences,
    example_budget,
    hierarchical_topologies,
    hijack_cases,
    taxonomy_scenarios,
)


def _engines(case):
    reference = RoutingEngine(case.view, case.policy)
    array = RoutingEngine(case.view, case.policy, backend="array")
    return reference, array


@settings(max_examples=example_budget(150), deadline=None)
@given(hijack_cases())
def test_hijack_checksums_match_reference(case):
    """Both hijack phases — legitimate convergence and the attacker's
    announcement stacked on it — hash identically under both backends,
    with random blocking, policy variants and the stub filter."""
    reference, array = _engines(case)
    ref_result = reference.hijack(
        case.target,
        case.attacker,
        blocked=case.blocked,
        filter_first_hop_providers=case.first_hop_filtered,
    )
    arr_result = array.hijack(
        case.target,
        case.attacker,
        blocked=case.blocked,
        filter_first_hop_providers=case.first_hop_filtered,
    )
    assert ref_result.legitimate.checksum() == arr_result.legitimate.checksum()
    assert ref_result.final.checksum() == arr_result.final.checksum()
    assert ref_result.polluted_nodes == arr_result.polluted_nodes


@settings(max_examples=example_budget(80), deadline=None)
@given(announce_withdraw_sequences())
def test_converge_delta_journal_parity(case):
    """Announce/withdraw chains through ``converge_delta`` produce the
    identical undo journal under both backends — same entries in the same
    install order — and reverting every announcement lands both on the
    same checksum at every step."""
    view, ops = case
    reference = RoutingEngine(view)
    array = RoutingEngine(view, backend="array")
    ref_state = arr_state = None
    ref_deltas, arr_deltas = [], []
    for kind, origin, blocked, first_hop in ops:
        if kind == "withdraw":
            continue  # rewinds are exercised below, newest-first
        if ref_state is None:
            n = len(view)
            from repro.bgp.engine import RouteState

            ref_state = RouteState.empty(n, origin)
            arr_state = RouteState.empty(n, origin)
        ref_delta = reference.converge_delta(
            ref_state, origin, blocked=blocked, filter_first_hop_providers=first_hop
        )
        arr_delta = array.converge_delta(
            arr_state, origin, blocked=blocked, filter_first_hop_providers=first_hop
        )
        assert ref_delta.records() == arr_delta.records()
        assert ref_state.checksum() == arr_state.checksum()
        ref_deltas.append(ref_delta)
        arr_deltas.append(arr_delta)
    while ref_deltas:
        ref_deltas.pop().revert(ref_state)
        arr_deltas.pop().revert(arr_state)
        assert ref_state.checksum() == arr_state.checksum()


@settings(max_examples=example_budget(60), deadline=None)
@given(hijack_cases(), st.data())
def test_engine_counters_match_reference(case, data):
    """Both backends emit the same ``engine.*`` counters: equal snapshots
    for a cold ``converge`` and a ``converge_delta`` stacked on it (with
    blocking, the stub filter and claimed-path padding). A
    ``converge_batch`` moves the same messages, installs and
    replacements; the array backend counts it as one fused convergence
    whose rounds are the longest column's, the reference backend as one
    convergence per column."""
    n = len(case.view)
    origin_length = data.draw(st.integers(min_value=0, max_value=3), label="padding")
    origins = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=4),
        label="batch origins",
    )
    blocked_sets = [case.blocked - {origin} for origin in origins]
    passes, batches = [], []
    for backend in ("reference", "array"):
        metrics = Metrics()
        engine = RoutingEngine(case.view, case.policy, metrics=metrics, backend=backend)
        base = engine.converge(
            case.target, filter_first_hop_providers=case.first_hop_filtered
        )
        engine.converge_delta(
            base.copy_for(case.target),
            case.attacker,
            blocked=case.blocked,
            filter_first_hop_providers=case.first_hop_filtered,
            origin_length=origin_length,
        )
        passes.append(dict(metrics.counters))
        metrics.counters.clear()
        engine.converge_batch(
            origins,
            base=base,
            blocked_sets=blocked_sets,
            first_hop_flags=[case.first_hop_filtered] * len(origins),
            origin_lengths=[origin_length] * len(origins),
        )
        batches.append(dict(metrics.counters))
    assert passes[0] == passes[1]
    reference, array = batches
    for name in ("engine.messages", "engine.routes_installed", "engine.routes_replaced"):
        assert reference[name] == array[name], name
    assert reference["engine.convergences"] == len(origins)
    assert array["engine.convergences"] == 1
    reference_base = RoutingEngine(case.view, case.policy).converge(
        case.target, filter_first_hop_providers=case.first_hop_filtered
    )
    column_rounds = []
    for origin, blocked in zip(origins, blocked_sets):
        metrics = Metrics()
        RoutingEngine(case.view, case.policy, metrics=metrics).converge(
            origin,
            base=reference_base,
            blocked=blocked,
            filter_first_hop_providers=case.first_hop_filtered,
            origin_length=origin_length,
        )
        column_rounds.append(metrics.counters["engine.convergence_rounds"])
    assert reference["engine.convergence_rounds"] == sum(column_rounds)
    assert array["engine.convergence_rounds"] == max(column_rounds)


@settings(max_examples=example_budget(60), deadline=None)
@given(taxonomy_scenarios())
def test_taxonomy_cells_match_reference(case):
    """Every attack-grid cell — forged paths, squats, replays, leaks —
    runs checksum-identically on both backends, with the same claimed
    path, the same polluted set, and the same detection verdict from the
    full path-aware detector."""
    graph, scenario = case
    ref_lab = HijackLab(graph, seed=0, validate=True)
    arr_lab = HijackLab(graph, seed=0, validate=True, backend="array")
    ref_outcome = ref_lab.run_scenario(scenario)
    arr_outcome = arr_lab.run_scenario(scenario)
    assert ref_outcome.claimed_path == arr_outcome.claimed_path
    assert ref_outcome.polluted_asns == arr_outcome.polluted_asns
    ref_state = ref_lab.claimed_path(scenario)  # resolves against baseline
    assert ref_state == arr_lab.claimed_path(scenario)
    detector = HijackDetector(
        probes=top_degree_probes(graph, count=6),
        authority=PublicationState.full(ref_lab.plan).table(),
        neighbors=NeighborRegistry.from_graph(graph),
        relationships=graph,
    )
    ref_report = detector.observe(ref_outcome)
    arr_report = detector.observe(arr_outcome)
    assert ref_report.verdict == arr_report.verdict
    assert ref_report.detected == arr_report.detected
    assert ref_report.triggered_probes == arr_report.triggered_probes


@settings(max_examples=example_budget(8), deadline=None)
@given(hierarchical_topologies(min_size=8), st.data())
def test_lab_sweep_outcomes_match_reference(graph, data):
    """The full production stack on the array backend — lab, convergence
    cache, sweep — pollutes exactly the ASes the reference backend
    computes, cold and hot."""
    asns = sorted(graph.asns())
    target = data.draw(st.sampled_from(asns), label="target")
    ref_lab = HijackLab(graph, seed=3)
    arr_lab = HijackLab(graph, seed=3, backend="array")
    for _pass in ("cold", "hot"):
        ref_outcomes = ref_lab.sweep_target(target)
        arr_outcomes = arr_lab.sweep_target(target)
        assert ref_outcomes.keys() == arr_outcomes.keys()
        for attacker_asn, ref_outcome in ref_outcomes.items():
            assert (
                ref_outcome.polluted_asns
                == arr_outcomes[attacker_asn].polluted_asns
            ), attacker_asn
