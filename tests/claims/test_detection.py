"""Section VI, Fig. 7 and Tables 3-5: three detector configurations.

Paper, over 8,000 random attacks: 17 tier-1 probes surprisingly miss 34%
of attacks (the largest miss pollutes 20,306 of 42,697 ASes), 24
BGPmon-like probes miss 11%, the 62 top-degree probes miss 3% (the
largest miss ~6% of the internet); mean attack size grows with the
number of probes triggered.
"""

from tests.claims.conftest import first


def _miss_rates(result) -> dict[str, float]:
    return {
        name: stats["miss_rate"]
        for name, stats in result.summary.items()
        if isinstance(stats, dict) and "miss_rate" in stats
    }


def _largest_miss(result) -> int:
    return result.tables["undetected"][0]["pollution_count"]


def test_tier1_probes_are_worst(experiment):
    result = experiment("fig7")
    rates = _miss_rates(result)
    tier1 = first(rates, "tier1")
    # The counterintuitive headline: tier-1 probes are the WORST
    # configuration, with a substantial blind spot.
    assert tier1 > first(rates, "bgpmon") > first(rates, "top-degree")
    assert tier1 == max(rates.values())
    assert tier1 > 0.15
    assert result.summary["ordering_matches_paper"]


def test_top_degree_probes_are_best(experiment):
    rates = _miss_rates(experiment("fig7"))
    top = first(rates, "top-degree")
    assert top == min(rates.values())
    assert top < 0.10


def test_large_attacks_escape_tier1_probes(experiment, suite):
    tier1 = first(experiment("fig7").summary, "tier1")
    assert tier1["max_pollution"] > 0.2 * len(suite.graph)


def test_more_probes_triggered_for_larger_attacks(experiment):
    for label, points in experiment("fig7").series.items():
        if label.endswith("/mean_size"):
            means = dict(points)
            positive = [bucket for bucket in means if bucket > 0]
            if len(positive) >= 3:
                assert means[max(positive)] > means[min(positive)]


def test_tab3_undetected_with_tier1_probes(experiment, suite):
    result = experiment("tab3")
    assert result.tables["undetected"], "tier-1 probes must miss attacks"
    assert _largest_miss(result) > 0.1 * len(suite.graph)


def test_tab4_undetected_with_bgpmon_probes(experiment):
    assert experiment("tab4").summary["miss_rate"] > 0.0


def test_tab5_undetected_with_top_degree_probes(experiment, suite):
    result = experiment("tab5")
    # Best config: a small miss rate, and what escapes is small.
    assert result.summary["miss_rate"] < 0.10
    if result.tables["undetected"]:
        assert _largest_miss(result) < 0.25 * len(suite.graph)
