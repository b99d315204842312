"""Unit tests for the replay engine and the online monitor.

The batch cross-check class is the load-bearing one: a compiled scenario
stream must land on exactly the pollution set the batch lab computes for
the same scenario — cold and cache-warm, sequential and parallel.
"""

import pytest

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import HijackScenario
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet
from repro.obs.metrics import Metrics
from repro.registry.neighbors import NeighborRegistry
from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    Withdraw,
    compile_campaign,
    compile_scenario,
)
from repro.stream.incremental import full_converge
from repro.stream.monitor import OnlineMonitor
from repro.stream.replay import StreamReplayer
from repro.util.rng import make_rng


@pytest.fixture
def lab(mini_graph) -> HijackLab:
    return HijackLab(mini_graph, seed=1)


def polluted_by_stream(lab: HijackLab, replayer: StreamReplayer,
                       scenario: HijackScenario) -> frozenset[int]:
    """The stream-side pollution set, in the batch lab's vocabulary."""
    ledger = replayer.ledger(scenario.prefix)
    assert ledger is not None and ledger.state is not None
    attacker_node = lab.view.node_of(scenario.attacker_asn)
    holders = ledger.state.holders_of(attacker_node)
    return lab.view.expand(holders) - {scenario.attacker_asn}


class TestBatching:
    def test_coalesces_announce_withdraw_opened_in_batch(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=10.0)
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
        ])
        assert report.events_coalesced == 2
        assert report.prefixes[str(prefix)]["active_origins"] == [50]
        solo = StreamReplayer(lab).run(
            [Announce(at=0.0, prefix=prefix, origin_asn=50)]
        )
        assert (report.prefixes[str(prefix)]["checksum"]
                == solo.prefixes[str(prefix)]["checksum"])

    def test_never_cancels_a_pre_batch_announcement(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=10.0)
        replayer.submit(Announce(at=0.0, prefix=prefix, origin_asn=60))
        replayer.flush()
        # The withdraw closes the *pre-batch* announcement; the duplicate
        # announce in the same batch must not pair with it.
        replayer.submit(Announce(at=1.0, prefix=prefix, origin_asn=60))
        replayer.submit(Withdraw(at=2.0, prefix=prefix, origin_asn=60))
        report = replayer.finish()
        assert report.events_coalesced == 0
        assert report.events_noop == 1  # the duplicate announce
        assert report.prefixes[str(prefix)]["active_origins"] == []

    def test_duplicate_inside_a_batch_run_blocks_its_cancel(self, lab):
        # Cancelling the opener and the withdraw would turn the duplicate
        # into the real announce and leave AS60 on; per event it ends off.
        prefix = lab.target_prefix(50)
        events = [
            Announce(at=0.0, prefix=prefix, origin_asn=60),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
        ]
        report = StreamReplayer(lab, batch_window=10.0).run(events)
        unbatched = StreamReplayer(lab, queue_limit=1).run(events)
        assert report.events_coalesced == 0
        assert report.events_noop == unbatched.events_noop == 1
        assert report.prefixes[str(prefix)]["active_origins"] == []
        assert report.prefixes == unbatched.prefixes

    def test_backpressure_flush_at_queue_limit(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=100.0, queue_limit=2)
        replayer.submit(Announce(at=0.0, prefix=prefix, origin_asn=50))
        assert replayer.counts["flushes"] == 0 and replayer.ledger(prefix) is None
        replayer.submit(Announce(at=1.0, prefix=prefix, origin_asn=60))
        assert replayer.counts["applied"] == 2
        report = replayer.finish()
        assert report.backpressure_flushes == 1

    def test_batched_and_unbatched_replays_converge_identically(self, lab):
        scenarios = [
            HijackScenario(50, 60, lab.target_prefix(50)),
            HijackScenario(70, 80, lab.target_prefix(70)),
        ]
        events = compile_campaign(scenarios, stagger=0.5, dwell=2.0)
        per_event = StreamReplayer(lab).run(events)
        batched = StreamReplayer(lab, batch_window=3.0).run(events)
        assert {p: d["checksum"] for p, d in per_event.prefixes.items()} == {
            p: d["checksum"] for p, d in batched.prefixes.items()
        }

    def test_out_of_order_events_counted_not_dropped(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=100.0)
        replayer.submit(Announce(at=5.0, prefix=prefix, origin_asn=50))
        replayer.submit(Announce(at=1.0, prefix=prefix, origin_asn=60))
        report = replayer.finish()
        assert report.events_out_of_order == 1
        assert report.clock == 5.0
        assert report.prefixes[str(prefix)]["active_origins"] == [50, 60]


class TestErrorIsolation:
    def test_malformed_lines_counted_not_fatal(self, lab):
        replayer = StreamReplayer(lab)
        replayer.submit_line("{broken")
        replayer.submit_line('{"kind":"teleport","at":1.0}')
        prefix = lab.target_prefix(50)
        replayer.submit_line(
            '{"at":0.0,"kind":"announce","origin":50,"prefix":"%s"}' % prefix
        )
        report = replayer.finish()
        assert report.events_malformed == 2
        assert report.events_applied == 1
        assert len(report.errors) == 2

    def test_failing_event_does_not_kill_the_batch(self, lab):
        prefix = lab.target_prefix(50)
        report = StreamReplayer(lab).run([
            Announce(at=0.0, prefix=prefix, origin_asn=999999),
            Announce(at=0.0, prefix=prefix, origin_asn=50),
        ])
        assert report.events_applied == 1
        assert any("unknown origin AS999999" in error for error in report.errors)
        assert report.prefixes[str(prefix)]["active_origins"] == [50]

    def test_error_log_is_bounded(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, max_errors=1)
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=999998),
            Announce(at=0.0, prefix=prefix, origin_asn=999999),
        ])
        assert len(report.errors) == 1 and report.errors_dropped == 1

    def test_failing_observe_in_a_time_flush_keeps_the_incoming_event(
        self, lab, monkeypatch
    ):
        calls = []

        def observe_once_broken(self, at, prefix, ledger):
            calls.append(prefix)
            if len(calls) == 1:
                raise RuntimeError("monitor exploded")

        monkeypatch.setattr(OnlineMonitor, "observe", observe_once_broken)
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(
            lab, detector=HijackDetector(ProbeSet("pair", frozenset([10, 20]))),
            batch_window=0.5,
        )
        replayer.submit(Announce(at=0.0, prefix=prefix, origin_asn=50))
        # This event's time flushes the first one, whose observe raises.
        replayer.submit(Announce(at=1.0, prefix=prefix, origin_asn=60))
        assert replayer.counts["submitted"] == 2
        assert replayer.counts["applied"] == 1  # the second event still pends
        assert replayer.errors == [f"observe {prefix} at 0.5: monitor exploded"]
        report = replayer.finish()
        assert report.events_applied == 2
        assert report.prefixes[str(prefix)]["active_origins"] == [50, 60]
        assert len(report.errors) == 1

    def test_spurious_withdraw_is_a_noop(self, lab):
        report = StreamReplayer(lab).run([
            Withdraw(at=0.0, prefix=lab.target_prefix(50), origin_asn=50)
        ])
        assert report.events_noop == 1 and not report.errors


class TestLiveDefense:
    def test_roa_and_deployers_block_later_announcements(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab)
        replayer.run([
            RoaPublish(at=0.0, prefix=prefix, origin_asn=50),
            DefenseActivate(at=0.0, deployer_asns=(40,)),
            Announce(at=1.0, prefix=prefix, origin_asn=50),
            Announce(at=2.0, prefix=prefix, origin_asn=60),
        ])
        assert 40 in replayer.defense.strategy.deployers
        assert len(replayer.authority) == 1
        ledger = replayer.ledger(prefix)
        legit, attack = ledger.entries
        assert legit.blocked == frozenset()
        assert attack.blocked == frozenset({lab.view.node_of(40)})

    def test_defense_changes_are_not_retroactive(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab)
        replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=60),
            RoaPublish(at=1.0, prefix=prefix, origin_asn=50),
            DefenseActivate(at=1.0, deployer_asns=(40,)),
        ])
        installed = replayer.ledger(prefix)
        assert installed.entries[0].blocked == frozenset()
        before = installed.checksum()
        # Re-announcing after the defense landed does pick it up.
        replayer.run([
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
            Announce(at=3.0, prefix=prefix, origin_asn=60),
        ])
        after = replayer.ledger(prefix)
        assert after.entries[0].blocked == frozenset({lab.view.node_of(40)})
        assert after.checksum() != before


class TestDuplicatePath:
    """A duplicate announce is a no-op noticed before any defense work."""

    def storm(self, lab):
        """A storm-shaped stream: a RIB wave, re-announces, one flap with a
        ROA landing mid-flap, and a replay marker for an active origin.

        Returns the events and the indices of the duplicate announces.
        """
        p50, p70, p80 = (lab.target_prefix(asn) for asn in (50, 70, 80))
        events = [DefenseActivate(at=0.0, deployer_asns=(40,))]
        events += [Announce(at=0.0, prefix=p, origin_asn=asn)
                   for p, asn in ((p50, 50), (p70, 70), (p80, 80))]
        at = 1.0
        for _ in range(20):
            for p, asn in ((p50, 50), (p70, 70), (p80, 80)):
                events.append(Announce(at=at, prefix=p, origin_asn=asn))
                at += 0.01
        events.append(Announce(at=at, prefix=p50, origin_asn=60))
        events += [Announce(at=at + 0.1, prefix=p50, origin_asn=60)] * 5
        events.append(Withdraw(at=at + 0.2, prefix=p50, origin_asn=60))
        events.append(RoaPublish(at=at + 0.3, prefix=p50, origin_asn=50))
        events.append(Announce(at=at + 0.4, prefix=p50, origin_asn=60))
        events += [Announce(at=at + 0.5, prefix=p50, origin_asn=60)] * 5
        events.append(
            Announce(at=at + 0.6, prefix=p70, origin_asn=70, replay="unmodified")
        )
        active: set[tuple[object, int]] = set()
        duplicates = []
        for index, event in enumerate(events):
            if isinstance(event, Announce):
                key = (event.prefix, event.origin_asn)
                if key in active:
                    duplicates.append(index)
                active.add(key)
            elif isinstance(event, Withdraw):
                active.discard((event.prefix, event.origin_asn))
        return events, duplicates

    def test_duplicates_skip_the_defense(self, lab, monkeypatch):
        from repro.defense.deployment import Defense

        events, duplicates = self.storm(lab)
        original = Defense.blocking_nodes
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Defense, "blocking_nodes", counting)
        replayer = StreamReplayer(lab)
        report = replayer.run(events)
        announces = sum(isinstance(event, Announce) for event in events)
        assert len(duplicates) == 20 * 3 + 5 + 5 + 1
        assert len(calls) == announces - len(duplicates) == 5
        assert replayer.counts["noop"] == report.events_noop == len(duplicates)
        assert not report.errors

    def test_checksums_equal_a_replay_without_duplicates(self, lab):
        events, duplicates = self.storm(lab)
        skipped = set(duplicates)
        deduped = [event for index, event in enumerate(events) if index not in skipped]
        stormy = StreamReplayer(lab).run(events)
        clean = StreamReplayer(lab).run(deduped)
        assert clean.events_noop == 0
        assert {p: d["checksum"] for p, d in stormy.prefixes.items()} == {
            p: d["checksum"] for p, d in clean.prefixes.items()
        }

    def test_roa_between_withdraw_and_reannounce_blocks_it(self, lab):
        events, _duplicates = self.storm(lab)
        replayer = StreamReplayer(lab)
        replayer.run(events)
        legit, attack = replayer.ledger(lab.target_prefix(50)).entries
        assert (legit.origin_asn, attack.origin_asn) == (50, 60)
        assert legit.blocked == frozenset()
        assert attack.blocked == frozenset({lab.view.node_of(40)})


class TestFlapRevive:
    """A flap inside one flush revives the released state; a flap split
    across flushes, or one whose captured inputs changed, converges cold;
    after every flush no ledger keeps a released state."""

    ORIGIN = 60

    @pytest.fixture
    def lab(self, mini_graph) -> HijackLab:
        return HijackLab(mini_graph, seed=1, metrics=Metrics())

    def flap(self, lab, middle=(), *, roa=False, split=False, path=None):
        """Install AS 60 on AS 50's prefix, then withdraw and re-announce it.

        AS 40 deploys from the start, and ``roa`` publishes AS 50's ROA
        first. *middle* events land between the withdraw and the
        re-announce; ``split`` flushes there. Returns the replayer and
        the engine convergences of the flap.
        """
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, batch_window=100.0)
        replayer.submit(DefenseActivate(at=0.0, deployer_asns=(40,)))
        if roa:
            replayer.submit(RoaPublish(at=0.0, prefix=prefix, origin_asn=50))
        replayer.submit(Announce(at=0.0, prefix=prefix, origin_asn=self.ORIGIN))
        replayer.flush()
        before = lab.engine.metrics.counters["engine.convergences"]
        replayer.submit(Withdraw(at=1.0, prefix=prefix, origin_asn=self.ORIGIN))
        for event in middle:
            replayer.submit(event)
        prefixes = {prefix, *(getattr(event, "prefix", prefix) for event in middle)}
        if split:
            replayer.flush()
            self.assert_nothing_retained(replayer, prefixes)
        replayer.submit(
            Announce(at=2.0, prefix=prefix, origin_asn=self.ORIGIN, path=path)
        )
        replayer.flush()
        self.assert_nothing_retained(replayer, prefixes)
        ran = lab.engine.metrics.counters["engine.convergences"] - before
        ledger = replayer.ledger(prefix)
        reference = full_converge(lab.engine, ledger.entries)
        assert ledger.checksum() == reference.checksum()
        return replayer, ran

    @staticmethod
    def assert_nothing_retained(replayer, prefixes):
        ledgers = [replayer.ledger(prefix) for prefix in prefixes]
        assert all(ledger is None or ledger._released is None for ledger in ledgers)

    def test_flap_in_one_flush_adds_no_convergence(self, lab):
        replayer, ran = self.flap(lab)
        assert ran == 0
        assert replayer.counts["coalesced"] == 0

    def test_flap_split_across_flushes_converges_cold(self, lab):
        _replayer, ran = self.flap(lab, split=True)
        assert ran == 1

    def test_roa_between_changes_the_blocked_set(self, lab):
        prefix = lab.target_prefix(50)
        replayer, ran = self.flap(
            lab, [RoaPublish(at=1.5, prefix=prefix, origin_asn=50)]
        )
        assert ran == 1
        entry = replayer.ledger(prefix).entries[0]
        assert entry.blocked == frozenset({lab.view.node_of(40)})

    def test_defense_activate_between_changes_the_blocked_set(self, lab):
        prefix = lab.target_prefix(50)
        first = self.flap(lab, roa=True)[0].ledger(prefix).entries[0]
        assert first.blocked == frozenset({lab.view.node_of(40)})
        replayer, ran = self.flap(
            lab, [DefenseActivate(at=1.5, deployer_asns=(20,))], roa=True
        )
        assert ran == 1
        entry = replayer.ledger(prefix).entries[0]
        assert entry.blocked == frozenset(
            {lab.view.node_of(20), lab.view.node_of(40)}
        )

    def test_roa_that_leaves_the_blocked_set_revives(self, lab):
        """Only the captured inputs decide: a ROA for another prefix
        changes nothing the re-announce captures."""
        _replayer, ran = self.flap(
            lab,
            [RoaPublish(at=1.5, prefix=lab.target_prefix(70), origin_asn=70)],
            roa=True,
        )
        assert ran == 0

    def test_a_different_claimed_path_converges_cold(self, lab):
        replayer, ran = self.flap(lab, path=(self.ORIGIN, 50))
        assert ran == 1
        entry = replayer.ledger(lab.target_prefix(50)).entries[0]
        assert entry.path == (self.ORIGIN, 50)

    def test_flaps_leave_the_report_of_a_per_event_replay(self, lab):
        prefix = lab.target_prefix(50)
        events = [Announce(at=0.0, prefix=prefix, origin_asn=50)]
        for step in range(4):
            events += [
                Withdraw(at=1.0 + step, prefix=prefix, origin_asn=50),
                Announce(at=1.5 + step, prefix=prefix, origin_asn=50),
            ]
        batched = StreamReplayer(lab, batch_window=100.0)
        report = batched.run(events)
        unbatched = StreamReplayer(lab).run(events)
        assert report.prefixes == unbatched.prefixes
        self.assert_nothing_retained(batched, {prefix})


class TestMonitor:
    def events(self, prefix):
        return [
            RoaPublish(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
        ]

    def monitored(self, lab, *, batch_window=0.0):
        replayer = StreamReplayer(lab, batch_window=batch_window)
        detector = HijackDetector(
            ProbeSet("pair", frozenset([10, 20])), replayer.authority
        )
        replayer.monitor = OnlineMonitor(lab.view, detector)
        return replayer

    def test_hijack_alarm_charges_queue_time_to_latency(self, lab):
        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab, batch_window=2.0)
        for event in self.events(prefix):
            replayer.submit(event)
        # This event lands past the window: the pending batch flushes at
        # its virtual deadline (t=2) before the withdraw exists.
        replayer.submit(Withdraw(at=10.0, prefix=prefix, origin_asn=60))
        report = replayer.finish()
        monitor = report.monitor
        assert monitor.conflicts_judged >= 1
        alarm = monitor.first_alarm
        assert alarm.at == 2.0 and alarm.verdict == "hijack"
        assert alarm.origins == (50, 60)
        assert alarm.invalid_origins == (60,)
        assert alarm.triggered_probes == (20,)
        # Announced at t=1, judged at the t=2 flush: one virtual second.
        assert alarm.latency_time == 1.0
        assert monitor.detection_latency_time == 1.0

    def test_unbatched_alarm_has_zero_latency(self, lab):
        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab)
        report = replayer.run(self.events(prefix))
        assert report.monitor.detection_latency_time == 0.0

    def test_repeated_conflict_pages_once(self, lab):
        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab)
        replayer.run(self.events(prefix))
        replayer.run([
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
            Announce(at=3.0, prefix=prefix, origin_asn=60),
        ])
        monitor = replayer.monitor.report()
        assert len(monitor.alarms) == 1

    def test_new_culprit_path_with_the_same_origins_pages_again(self, lab):
        """The dedupe key is (prefix, origins, culprit paths): a flap of
        the same forged path pages once, a different forged path behind
        the same origin set pages again."""
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab, detector=HijackDetector(
            ProbeSet("transit", frozenset([1, 2, 10, 20, 30, 40])),
            neighbors=NeighborRegistry.from_graph(lab.graph),
            relationships=lab.graph,
        ))
        forged = [(60, 70, 50), (60, 70, 50), (60, 80, 50)]
        events = [Announce(at=0.0, prefix=prefix, origin_asn=50)]
        for step, path in enumerate(forged):
            events += [
                Announce(at=1.0 + 2 * step, prefix=prefix, origin_asn=60, path=path),
                Withdraw(at=2.0 + 2 * step, prefix=prefix, origin_asn=60),
            ]
        alarms = replayer.run(events).monitor.alarms
        assert [alarm.origins for alarm in alarms] == [(50,), (50,)]
        assert [alarm.culprit_paths for alarm in alarms] == [
            ((60, 70, 50),), ((60, 80, 50),),
        ]

    def test_coalesced_flap_never_alarms(self, lab):
        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab, batch_window=10.0)
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
            Withdraw(at=2.0, prefix=prefix, origin_asn=60),
        ])
        assert report.events_coalesced == 2
        assert report.monitor.alarms == ()

    def probe_origins(self, replayer, prefix, probes=(10, 20)):
        state = replayer.ledger(prefix).state
        view = replayer.lab.view
        return [state.origin_of[view.node_of(asn)] for asn in probes]

    def test_roa_publish_flips_a_verdict_the_probes_did_not_change(self, lab):
        """A ROA lands, then an announce touches the prefix without moving
        either probe's route: the observation list is the one already
        judged, but the published data is not, so it is judged again."""
        prefix = lab.target_prefix(50)
        metrics = Metrics()
        replayer = StreamReplayer(
            lab, detector=HijackDetector(ProbeSet("pair", frozenset([10, 20]))),
            metrics=metrics,
        )
        replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
        ])
        seen = self.probe_origins(replayer, prefix)
        replayer.run([
            RoaPublish(at=2.0, prefix=prefix, origin_asn=50),
            Announce(at=3.0, prefix=prefix, origin_asn=70),
        ])
        assert self.probe_origins(replayer, prefix) == seen
        monitor = replayer.monitor.report()
        assert [alarm.verdict for alarm in monitor.alarms] == ["unverifiable", "hijack"]
        assert monitor.alarms[1].invalid_origins == (60,)
        assert monitor.conflicts_judged == 2
        assert "stream.monitor.reused" not in metrics.snapshot()["counters"]

    def test_an_unchanged_observation_list_reuses_its_verdict(self, lab):
        """70's announce and withdraw leave the pair's view alone, with no
        ROA change in between: both reuse the conflict judged before, and
        count toward conflicts_judged as a re-judge would."""
        prefix = lab.target_prefix(50)
        metrics = Metrics()
        replayer = StreamReplayer(
            lab, detector=HijackDetector(ProbeSet("pair", frozenset([10, 20]))),
            metrics=metrics,
        )
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
            Announce(at=2.0, prefix=prefix, origin_asn=70),
            Withdraw(at=3.0, prefix=prefix, origin_asn=70),
        ])
        counters = metrics.snapshot()["counters"]
        assert counters["stream.monitor.reused"] == 2
        assert counters["stream.monitor.conflicts"] == 3
        assert report.monitor.conflicts_judged == 3
        assert [alarm.verdict for alarm in report.monitor.alarms] == ["unverifiable"]

    def test_report_serializes(self, lab):
        import json

        prefix = lab.target_prefix(50)
        replayer = self.monitored(lab)
        report = replayer.run(self.events(prefix))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["monitor"]["alarm_count"] == 1
        assert payload["monitor"]["probe_set"] == "pair"
        assert payload["events"]["submitted"] == 3


class TestDetectorBinding:
    def test_detector_judges_against_the_live_roa_table(self, lab):
        template = HijackDetector(ProbeSet("pair", frozenset([10, 20])))
        replayer = StreamReplayer(lab, detector=template)
        assert replayer.monitor is not None
        assert replayer.monitor.detector.authority is replayer.authority
        assert template.authority is None  # the template is left as it was
        prefix = lab.target_prefix(50)
        report = replayer.run([
            RoaPublish(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
        ])
        # The alarm needs the ROA published mid-stream: the binding is live.
        assert [alarm.verdict for alarm in report.monitor.alarms] == ["hijack"]

    def test_detector_with_its_own_authority_is_refused(self, lab):
        detector = HijackDetector(
            ProbeSet("pair", frozenset([10, 20])), authority=StreamReplayer(lab).authority
        )
        with pytest.raises(ValueError, match="live ROA table"):
            StreamReplayer(lab, detector=detector)

    def test_no_detector_no_monitor(self, lab):
        assert StreamReplayer(lab).monitor is None


class TestMonitorSchema:
    """The JSON contract the service API serves verbatim.

    Adding a key is fine; removing or renaming one breaks every consumer
    of ``/verdicts`` and the stream report files — change this snapshot
    and docs/service.md together.
    """

    def report(self, lab):
        prefix = lab.target_prefix(50)
        replayer = StreamReplayer(lab)
        detector = HijackDetector(
            ProbeSet("pair", frozenset([10, 20])), replayer.authority
        )
        replayer.monitor = OnlineMonitor(lab.view, detector)
        replayer.run([
            RoaPublish(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=0.0, prefix=prefix, origin_asn=50),
            Announce(at=1.0, prefix=prefix, origin_asn=60),
        ])
        return replayer.monitor.report()

    def test_alarm_schema_snapshot(self, lab):
        alarm = self.report(lab).first_alarm
        assert set(alarm.as_dict()) == {
            "at", "prefix", "origins", "verdict", "invalid_origins",
            "latency_time", "latency_events", "triggered_probes",
            "culprit_paths",
        }

    def test_report_schema_snapshot(self, lab):
        assert set(self.report(lab).as_dict()) == {
            "probe_set", "probe_count", "events_seen", "conflicts_judged",
            "alarm_count", "detection_latency_time",
            "detection_latency_events", "alarms",
        }

    def test_round_trip_is_json_stable(self, lab):
        import json

        payload = self.report(lab).as_dict()
        once = json.dumps(payload, sort_keys=True)
        twice = json.dumps(json.loads(once), sort_keys=True)
        assert once == twice
        decoded = json.loads(once)
        assert decoded["alarms"][0]["prefix"] == str(lab.target_prefix(50))
        assert decoded["alarms"][0]["origins"] == [50, 60]
        assert decoded["alarms"][0]["invalid_origins"] == [60]


class TestBatchCrossCheck:
    """Compiled scenario streams reproduce the batch lab bit-for-bit."""

    def scenarios(self, lab: HijackLab, count: int) -> list[HijackScenario]:
        rng = make_rng(3, "stream-crosscheck")
        pool = lab.attacker_pool()
        picked: list[HijackScenario] = []
        while len(picked) < count:
            target, attacker = rng.sample(pool, 2)
            if lab.view.node_of(target) == lab.view.node_of(attacker):
                continue
            picked.append(HijackScenario(target, attacker, lab.target_prefix(target)))
        return picked

    def test_stream_matches_batch_cold_and_warm(self, medium_graph):
        lab = HijackLab(medium_graph, seed=7)  # fresh: cold cache
        scenarios = self.scenarios(lab, 5)
        cold = lab.run_scenarios(scenarios)
        warm = lab.run_scenarios(scenarios)  # cache-warm
        assert [o.polluted_asns for o in warm] == [o.polluted_asns for o in cold]
        for outcome in cold:
            replayer = StreamReplayer(lab)
            replayer.run(compile_scenario(outcome.scenario))
            assert (
                polluted_by_stream(lab, replayer, outcome.scenario)
                == outcome.polluted_asns
            )

    def test_subprefix_stream_matches_batch(self, lab):
        outcome = lab.subprefix_hijack(50, 60)
        replayer = StreamReplayer(lab)
        replayer.run(compile_scenario(outcome.scenario))
        assert (
            polluted_by_stream(lab, replayer, outcome.scenario)
            == outcome.polluted_asns
        )
