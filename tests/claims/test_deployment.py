"""Section V, Figs. 5-6 and its two tables: incremental filter deployment.

Paper ladder: baseline, random-100/500, the 17 tier-1s, then the degree
cores (62/124/166/299 ASes). Random deployment has "negligible to minor
effect"; tier-1 gives "the first real gain" but still leaves an average
successful attack on the deep target polluting 52% of the internet; the
62-AS core is the non-linear jump; more filters keep helping, yet some
attacks — launched from low depth — survive even 299 deployers.
"""

from tests.claims.conftest import curves, first


def _factors(experiment, name) -> dict[str, float]:
    return experiment(name).summary["improvement_factors"]


def _random_factors(factors) -> list[float]:
    return [f for strategy, f in factors.items() if strategy.startswith("random")]


def test_random_deployment_nearly_useless(experiment):
    for name in ("fig5", "fig6"):
        random_factors = _random_factors(_factors(experiment, name))
        assert random_factors
        assert max(random_factors) < 3.0


def test_tier1_helps_but_not_enough(experiment, suite):
    resistant = _factors(experiment, "fig5")
    assert first(resistant, "tier1") > max(_random_factors(resistant))
    assert resistant["core-62"] > 2 * first(resistant, "tier1")

    vulnerable = _factors(experiment, "fig6")
    assert 1.0 < first(vulnerable, "tier1") < vulnerable["core-62"]
    # The deep target's baseline successful attack pollutes most of the
    # internet, and tier-1-only still leaves a large share polluted.
    as_count = len(suite.graph)
    stats = curves(experiment("fig6"))
    assert stats["baseline"]["mean_successful"] > 0.5 * as_count
    assert first(stats, "tier1")["mean_successful"] > 0.2 * as_count


def test_nonlinear_threshold_at_core(experiment):
    # The paper's headline: adding the high-degree core flips small
    # improvements into large gains.
    assert experiment("fig5").summary["crossover_strategy"] is not None
    summary = experiment("fig6").summary
    factors = summary["improvement_factors"]
    assert factors["core-62"] > 4.0
    first_4x = next(s for s, f in list(factors.items())[1:] if f >= 4.0)
    assert first_4x.startswith("core")
    assert str(summary["crossover_strategy"]).startswith("core")


def test_larger_core_tiers_keep_improving(experiment):
    resistant = _factors(experiment, "fig5")
    assert resistant["core-299"] >= resistant["core-62"]
    vulnerable = _factors(experiment, "fig6")
    assert vulnerable["core-299"] > vulnerable["core-62"]
    # Every non-random rung is at most 5% worse than the one before it.
    means = [
        stats["mean_successful"]
        for strategy, stats in curves(experiment("fig6")).items()
        if not strategy.startswith("random")
    ]
    for before, after in zip(means, means[1:]):
        assert after <= before + 0.05 * max(before, 1.0)


def test_residual_attacks_remain(experiment):
    # "Although the situation has been drastically improved it is still
    # not perfect."
    final = list(curves(experiment("fig6")).values())[-1]
    assert final["maximum"] > 0


def _potent_rows(result) -> list[tuple[int, int]]:
    return [(row["pollution_count"], row["depth"]) for row in result.tables["potent_attacks"]]


def test_tab1_potent_attacks_resistant_target(experiment):
    rows = _potent_rows(experiment("tab1"))
    assert len(rows) <= 5
    # Residual attackers are sorted by achieved pollution.
    sizes = [size for size, _depth in rows]
    assert sizes == sorted(sizes, reverse=True)


def test_tab2_potent_attacks_vulnerable_target(experiment):
    rows = _potent_rows(experiment("tab2"))
    sizes = [size for size, _depth in rows]
    assert sizes == sorted(sizes, reverse=True)
    # The still-potent attackers sit at low depth (the paper's tables show
    # depths 1-2) — deep attackers are already neutralized.
    depths = [depth for size, depth in rows if size > 0]
    if depths:
        assert min(depths) <= 2
