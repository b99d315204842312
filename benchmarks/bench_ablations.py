"""ABL — ablations of the design choices DESIGN.md calls out.

* **tier-1 shortest-path policy**: the paper attributes its detector blind
  spots to tier-1s preferring shortest paths; turning the rule off should
  make tier-1 probes markedly better detectors.
* **stub filters**: the optimistic scenario must strictly reduce the
  effective attacker pool and the baseline exposure.
* **historical blocking** (PGBGP): blocking on historical origins at
  the 62-core must beat the undefended baseline.
* **stale history**: Section VI's warning — after legitimate transfers,
  historical data alarms and blocking on it blackholes the rightful owner.
"""

import pytest

from repro.attacks.lab import HijackLab
from repro.bgp.policy import PolicyConfig
from repro.core.detection_analysis import compare_detectors
from repro.defense.deployment import Defense
from repro.detection.probes import tier1_probes
from repro.util.rng import make_rng

ABLATION_ATTACKS = 800


@pytest.fixture(scope="module")
def labs(suite):
    default = suite.lab
    no_tier1_rule = HijackLab(
        suite.graph,
        plan=default.plan,
        policy=PolicyConfig(tier1_shortest_path=False),
        seed=suite.config.seed,
    )
    return default, no_tier1_rule


def test_abl_tier1_policy_drives_detector_blind_spots(benchmark, labs):
    """Paper, Section VI: "If tier-1 policy were different, then some of
    them may have detected the attack." Disable the rule and measure."""
    default, ablated = labs

    def run():
        probe_sets = [tier1_probes(default.graph)]
        with_rule = compare_detectors(
            default, probe_sets, attack_count=ABLATION_ATTACKS, seed=5
        ).miss_rates()
        without_rule = compare_detectors(
            ablated, probe_sets, attack_count=ABLATION_ATTACKS, seed=5
        ).miss_rates()
        return next(iter(with_rule.values())), next(iter(without_rule.values()))

    with_rule, without_rule = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nABL-T1: tier-1 probe miss rate {with_rule:.1%} with the "
          f"shortest-path rule vs {without_rule:.1%} without")
    assert without_rule < with_rule


def test_abl_stub_filters_shrink_exposure(benchmark, suite):
    """First-hop stub filtering must nullify stub attackers entirely."""
    lab = suite.lab
    filtered = lab.with_defense(Defense(stub_filter=True))
    from repro.topology.classify import stub_asns

    rng = make_rng(6, "abl-stub")
    stubs = sorted(stub_asns(lab.graph))
    target = suite.roles.deep_target
    attackers = [a for a in rng.sample(stubs, 60) if a != target]

    def run():
        baseline = sum(
            lab.origin_hijack(target, a).pollution_count for a in attackers
        )
        with_filters = sum(
            filtered.origin_hijack(target, a).pollution_count for a in attackers
        )
        return baseline, with_filters

    baseline, with_filters = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nABL-STUB: total pollution from {len(attackers)} stub attackers: "
          f"{baseline} baseline vs {with_filters} with stub filters")
    assert baseline > 0
    assert with_filters == 0


def test_abl_pgbgp_style_historical_blocking(benchmark, suite):
    """The paper's Section II cross-check: PGBGP reports "97% of ASes can
    be protected from malicious prefix routes when PGBGP is deployed only
    on the 62 core ASes"; the paper counters that "the general case
    requires wider security deployment". Historical-origin blocking at the
    top-62 core over random attacks measures exactly that claim."""
    from repro.defense.strategies import top_degree_deployment
    from repro.registry.history import HistoricalAuthority

    lab = suite.lab
    history = HistoricalAuthority.from_plan(lab.plan)
    defended = lab.with_defense(
        Defense(strategy=top_degree_deployment(lab.graph, 62), authority=history)
    )

    def run():
        baseline = lab.random_attacks(ABLATION_ATTACKS, seed=9)
        protected_outcomes = defended.random_attacks(ABLATION_ATTACKS, seed=9)
        total = len(lab.graph) * len(baseline)
        base_polluted = sum(o.pollution_count for o in baseline)
        core_polluted = sum(o.pollution_count for o in protected_outcomes)
        return 1 - base_polluted / total, 1 - core_polluted / total

    base_ok, core_ok = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nABL-PGBGP: mean fraction of ASes unpolluted per attack: "
          f"{base_ok:.1%} baseline -> {core_ok:.1%} with 62-core historical "
          f"blocking (PGBGP paper claims 97%)")
    assert core_ok > base_ok
    assert core_ok > 0.90  # the 62-core claim is in reach on average...


def test_abl_stale_history_churn(benchmark, suite):
    """Section VI's warning quantified: historical data raises false
    alerts after legitimate transfers, and *blocking* on it blackholes the
    rightful owner — registries updated by the owner do not."""
    from repro.core.churn import sample_transfers, stale_history_study
    from repro.defense.strategies import top_degree_deployment

    lab = suite.lab
    events = sample_transfers(lab, 25, seed=11)
    strategy = top_degree_deployment(lab.graph, 62)

    def run():
        impacts = stale_history_study(lab, events, blocking_strategy=strategy)
        false_positives = sum(1 for i in impacts if i.false_positive)
        worst = max(i.blackholed_fraction for i in impacts)
        return false_positives, worst

    false_positives, worst = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nABL-CHURN: {false_positives}/{len(events)} legitimate transfers "
          f"flagged as hijacks by stale history; worst collateral "
          f"blackholing {worst:.1%} of ASes")
    assert false_positives == len(events)
    assert worst > 0.0

