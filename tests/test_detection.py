"""Unit tests for probes, detectors and the Fig. 7 analysis."""

import pytest

from repro.attacks.lab import HijackLab
from repro.detection.analysis import DetectionStudy, greedy_probe_placement
from repro.detection.detector import HijackDetector
from repro.detection.moas import MoasVerdict
from repro.detection.probes import (
    ProbeSet,
    bgpmon_like_probes,
    tier1_probes,
    top_degree_probes,
)
from repro.detection.taxonomy import PathObservation
from repro.prefixes.prefix import Prefix
from repro.registry.publication import PublicationState
from repro.registry.roa import RoaTable, RouteOriginAuthorization
from repro.util.rng import make_rng


@pytest.fixture
def mini_lab(mini_graph) -> HijackLab:
    return HijackLab(mini_graph, seed=1)


class TestProbeSets:
    def test_tier1_probes(self, mini_graph):
        probes = tier1_probes(mini_graph)
        assert probes.asns == frozenset({1, 2})

    def test_top_degree_probes(self, medium_graph):
        probes = top_degree_probes(medium_graph, count=10)
        assert len(probes) == 10

    def test_bgpmon_like_mix(self, medium_graph):
        probes = bgpmon_like_probes(medium_graph, count=24, seed=0)
        assert len(probes) == 24
        ranked = sorted(
            medium_graph.asns(), key=lambda asn: (-medium_graph.degree(asn), asn)
        )
        core = set(ranked[:4])
        assert probes.asns & core, "expected a few high-degree probes"
        assert probes.asns - set(ranked[:60]), "expected tail probes too"

    def test_bgpmon_like_deterministic(self, medium_graph):
        assert (
            bgpmon_like_probes(medium_graph, seed=0).asns
            == bgpmon_like_probes(medium_graph, seed=0).asns
        )

    def test_triggered_by(self):
        probes = ProbeSet("x", frozenset([1, 2, 3]))
        assert probes.triggered_by(frozenset({2, 9})) == frozenset({2})


class TestDetector:
    def test_detection_requires_polluted_probe(self, mini_lab):
        outcome = mini_lab.origin_hijack(50, 60)  # pollutes {40, 20, 2}
        seen = HijackDetector(ProbeSet("hit", frozenset([20]))).observe(outcome)
        missed = HijackDetector(ProbeSet("miss", frozenset([10]))).observe(outcome)
        assert seen.detected and seen.probe_count == 1
        assert not missed.detected and missed.seen is False

    def test_blind_spot_of_tier1_probes(self, mini_lab):
        # Attack 70 -> pollutes {1, 2}: tier-1 probes see it. But an attack
        # polluting only the east branch escapes a west-only probe.
        outcome = mini_lab.origin_hijack(50, 60)
        report = HijackDetector(ProbeSet("west", frozenset([10, 30]))).observe(outcome)
        assert not report.detected
        assert outcome.pollution_count == 3  # sizeable yet unseen

    def test_authority_gates_classification(self, mini_lab):
        publication = PublicationState.with_participants(mini_lab.plan, [])
        outcome = mini_lab.origin_hijack(50, 60)
        detector = HijackDetector(ProbeSet("x", frozenset([20])), publication.table())
        report = detector.observe(outcome)
        # Probe polluted but the target never published: not classifiable.
        assert report.seen and not report.detected

    def test_published_target_is_classified(self, mini_lab):
        publication = PublicationState.with_participants(mini_lab.plan, [50])
        detector = HijackDetector(ProbeSet("x", frozenset([20])), publication.table())
        assert detector.observe(mini_lab.origin_hijack(50, 60)).detected


class TestObserveConflict:
    """The event-by-event entry point a live monitor drives."""

    prefix = Prefix.parse("10.0.0.0/16")

    def detector(self, *roas) -> HijackDetector:
        authority = RoaTable(roas) if roas else None
        return HijackDetector(ProbeSet("x", frozenset([1, 2])), authority)

    def roa(self, origin: int) -> RouteOriginAuthorization:
        return RouteOriginAuthorization(self.prefix, origin)

    def judge(self, detector: HijackDetector, *origins: int):
        """What *detector* makes of one single-hop claim per origin."""
        return detector.observe_conflict(
            self.prefix, [PathObservation((origin,)) for origin in origins]
        )

    def test_nothing_observed_is_not_a_conflict(self):
        assert self.judge(self.detector()) is None

    def test_single_origin_needs_published_data(self):
        # Without an authority a lone origin is unjudgeable; with one that
        # doesn't cover the prefix it's NOT_FOUND — no alarm either way.
        assert self.judge(self.detector(), 60) is None
        other = RouteOriginAuthorization(Prefix.parse("11.0.0.0/16"), 50)
        assert self.judge(self.detector(other), 60) is None

    def test_single_valid_origin_is_quiet(self):
        assert self.judge(self.detector(self.roa(50)), 50) is None

    def test_single_invalid_origin_alarms_without_moas(self):
        # The sub-prefix shape: the bogus more-specific is the *only*
        # announcement for its NLRI, so there is no origin conflict at all
        # — published data is the only thing that can catch it.
        report = self.judge(self.detector(self.roa(50)), 60)
        assert report is not None and report.alarm
        assert report.verdict is MoasVerdict.HIJACK
        assert report.invalid_origins == (60,)

    def test_moas_without_authority_is_unverifiable_alarm(self):
        report = self.judge(self.detector(), 60, 50)
        assert report is not None and report.alarm
        assert report.verdict is MoasVerdict.UNVERIFIABLE
        assert report.origins == (50, 60)

    def test_moas_with_invalid_origin_is_hijack(self):
        report = self.judge(self.detector(self.roa(50)), 60, 50, 60)
        assert report.verdict is MoasVerdict.HIJACK
        assert report.invalid_origins == (60,)

    def test_authorized_anycast_does_not_alarm(self):
        report = self.judge(self.detector(self.roa(50), self.roa(60)), 50, 60)
        assert report.verdict is MoasVerdict.LEGITIMATE_ANYCAST
        assert not report.alarm


class TestStudy:
    @pytest.fixture
    def study(self, medium_lab) -> DetectionStudy:
        outcomes = medium_lab.random_attacks(120, seed=2)
        detector = HijackDetector(top_degree_probes(medium_lab.graph, count=20))
        return DetectionStudy.run(detector, outcomes)

    def test_histogram_accounts_for_every_attack(self, study):
        assert sum(study.histogram().values()) == len(study.reports) == 120

    def test_miss_rate_consistent(self, study):
        histogram = study.histogram()
        assert study.miss_rate() == pytest.approx(
            histogram.get(0, 0) / len(study.reports)
        )

    def test_mean_size_generally_grows_with_probe_count(self, study):
        means = study.mean_size_by_probe_count()
        buckets = [bucket for bucket in means if bucket > 0]
        if len(buckets) >= 2:
            assert means[max(buckets)] > means[min(buckets)]

    def test_top_undetected_sorted(self, study):
        rows = study.top_undetected(5)
        sizes = [row.pollution_count for row in rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_undetected_summary_fields(self, study):
        summary = study.undetected_summary()
        assert summary["missed"] == len(study.missed())
        assert 0.0 <= summary["miss_rate"] <= 1.0


class TestGreedyPlacement:
    def test_covers_more_than_random(self, medium_lab):
        outcomes = medium_lab.random_attacks(80, seed=5)
        from repro.topology.classify import transit_asns

        candidates = sorted(transit_asns(medium_lab.graph))
        greedy = greedy_probe_placement(outcomes, candidates, count=5)
        random_set = ProbeSet(
            "random-5", frozenset(make_rng(1, "random-probes", 5).sample(candidates, 5))
        )
        greedy_misses = DetectionStudy.run(
            HijackDetector(greedy), outcomes
        ).miss_rate()
        random_misses = DetectionStudy.run(
            HijackDetector(random_set), outcomes
        ).miss_rate()
        assert greedy_misses <= random_misses

    def test_respects_budget(self, medium_lab):
        outcomes = medium_lab.random_attacks(40, seed=6)
        probes = greedy_probe_placement(
            outcomes, medium_lab.graph.asns(), count=3
        )
        assert len(probes) <= 3

    def test_seed_probes_retained(self, medium_lab):
        outcomes = medium_lab.random_attacks(40, seed=6)
        probes = greedy_probe_placement(
            outcomes, medium_lab.graph.asns(), count=2, seed_probes=[1]
        )
        assert 1 in probes.asns
