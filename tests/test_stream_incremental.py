"""Unit tests for the per-prefix incremental convergence ledger, plus the
stream-side half of the attack-taxonomy conformance matrix: every grid
cell compiled to events must raise the same verdict from the online
monitor that the batch detector reaches on the finished outcome."""

import json

import pytest

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet, top_degree_probes
from repro.detection.taxonomy import grid_cells
from repro.obs.metrics import Metrics
from repro.registry.neighbors import NeighborRegistry
from repro.registry.publication import PublicationState
from repro.stream.events import Announce, RoaPublish, compile_scenario
from repro.stream.incremental import AnnounceEntry, PrefixLedger, full_converge
from repro.stream.monitor import OnlineMonitor
from repro.stream.replay import StreamReplayer
from tests.route_cells import set_route


@pytest.fixture
def engine(mini_view) -> RoutingEngine:
    return RoutingEngine(mini_view)


def node(view, asn: int) -> int:
    return view.node_of(asn)


def claimed_paths(ledger) -> dict[int, tuple[int, ...]]:
    """Routing node -> claimed AS path of every active announcement."""
    return {origin: entry.claimed_path for origin, entry in ledger.entry_of.items()}


class TestLedgerBasics:
    def test_empty_ledger_has_no_state(self, engine):
        ledger = PrefixLedger(engine)
        assert len(ledger) == 0
        assert ledger.state is None
        assert ledger.checksum() is None
        assert ledger.entries == ()
        assert full_converge(engine, ledger.entries) is None

    def test_single_announce_equals_cold_converge(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 50)
        assert ledger.announce(origin, origin_asn=50)
        assert ledger.checksum() == engine.converge(origin).checksum()
        assert ledger.origin_asns() == {origin: 50}

    def test_duplicate_announce_is_noop(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 50)
        assert ledger.announce(origin)
        before = ledger.checksum()
        assert not ledger.announce(origin)
        assert len(ledger) == 1 and ledger.checksum() == before

    def test_withdraw_of_inactive_origin_is_noop(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert not ledger.withdraw(node(mini_view, 50))
        assert ledger.announce(node(mini_view, 50))
        assert not ledger.withdraw(node(mini_view, 60))

    def test_captured_parameters_reach_the_pass(self, engine, mini_view):
        blocked = frozenset({node(mini_view, 40)})
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 60), blocked=blocked,
                               first_hop_filtered=True)
        entry = ledger.entries[0]
        assert entry.blocked == blocked and entry.first_hop_filtered
        reference = engine.converge(
            node(mini_view, 60), blocked=blocked, filter_first_hop_providers=True
        )
        assert ledger.checksum() == reference.checksum()


class TestWithdrawRewind:
    def test_newest_withdraw_restores_previous_state(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 50))
        before = ledger.checksum()
        assert ledger.announce(node(mini_view, 60))
        assert ledger.withdraw(node(mini_view, 60))
        assert ledger.checksum() == before

    def test_interior_withdraw_replays_suffix(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        for asn in (50, 60, 70):
            assert ledger.announce(node(mini_view, asn))
        assert ledger.withdraw(node(mini_view, 50))
        assert ledger.active_origins() == (
            node(mini_view, 60), node(mini_view, 70)
        )
        assert ledger.checksum() == full_converge(
            engine,
            (AnnounceEntry(node(mini_view, 60), 60),
             AnnounceEntry(node(mini_view, 70), 70)),
        ).checksum()

    def test_withdraw_to_empty(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        assert ledger.announce(node(mini_view, 50))
        assert ledger.withdraw(node(mini_view, 50))
        assert ledger.state is None and ledger.checksum() is None


class TestJournalFreeSlotZero:
    """Slot 0 is a cold converge: no journal, and rewinding it drops the state."""

    @pytest.fixture(params=["reference", "array"])
    def engine(self, request, mini_view) -> RoutingEngine:
        return RoutingEngine(mini_view, backend=request.param)

    def test_first_announcement_keeps_no_journal(self, engine, mini_view):
        metrics = Metrics()
        ledger = PrefixLedger(engine, metrics=metrics)
        assert ledger.announce(node(mini_view, 50))
        assert ledger._slots[0].delta is None
        assert metrics.counters.get("stream.ledger.cells_installed", 0) == 0
        assert ledger.announce(node(mini_view, 60))
        assert ledger._slots[1].delta is not None
        assert metrics.counters["stream.ledger.cells_installed"] == (
            ledger._slots[1].delta.touched
        )

    def test_withdrawing_the_last_origin_frees_the_state(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        for asn in (50, 60):
            assert ledger.announce(node(mini_view, asn))
        assert ledger.withdraw(node(mini_view, 60))
        assert ledger._state is not None
        assert ledger.withdraw(node(mini_view, 50))
        assert ledger._state is None

    def test_withdrawing_position_zero_rebases_the_survivors(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        for asn in (50, 60, 70):
            assert ledger.announce(node(mini_view, asn), origin_asn=asn)
        assert ledger.withdraw(node(mini_view, 50))
        survivors =(AnnounceEntry(node(mini_view, 60), 60),
                     AnnounceEntry(node(mini_view, 70), 70))
        assert ledger.entries == survivors
        assert ledger.checksum() == full_converge(engine, survivors).checksum()
        assert ledger._slots[0].delta is None
        assert ledger._slots[1].delta is not None


class TestFlapRevive:
    """Withdrawing the sole announcement keeps its state aside; an equal
    re-announce revives it without converging, any other one is cold."""

    @pytest.fixture(params=["reference", "array"])
    def engine(self, request, mini_view) -> RoutingEngine:
        return RoutingEngine(mini_view, backend=request.param, metrics=Metrics())

    def flapped(self, engine, mini_view, **changed):
        """Announce AS 60, withdraw it, re-announce with *changed* inputs.

        Returns the ledger and the engine convergences the re-announce ran.
        """
        ledger = PrefixLedger(engine, metrics=Metrics())
        origin = node(mini_view, 60)
        first = dict(origin_asn=60, blocked={node(mini_view, 40)},
                     first_hop_filtered=False, path=(60, 50))
        assert ledger.announce(origin, **first)
        assert ledger.withdraw(origin)
        before = engine.metrics.counters["engine.convergences"]
        assert ledger.announce(origin, **{**first, **changed})
        ran = engine.metrics.counters["engine.convergences"] - before
        assert ledger.checksum() == full_converge(engine, ledger.entries).checksum()
        return ledger, ran

    def test_equal_reannounce_revives_without_converging(self, engine, mini_view):
        ledger, ran = self.flapped(engine, mini_view)
        assert ran == 0
        counters = ledger.metrics.counters
        assert counters["stream.ledger.revived"] == 1
        assert counters["stream.ledger.convergences"] == 1  # the first announce
        assert ledger._released is None

    @pytest.mark.parametrize("changed", [
        {"origin_asn": 61},  # a sibling ASN announcing from the same node
        {"blocked": ()},
        {"first_hop_filtered": True},
        {"path": (60, 70, 50)},
        {"path": None},
    ], ids=["sibling-asn", "blocked", "first-hop", "path", "honest-path"])
    def test_changed_reannounce_converges_cold(self, engine, mini_view, changed):
        ledger, ran = self.flapped(engine, mini_view, **changed)
        assert ran == 1
        assert "stream.ledger.revived" not in ledger.metrics.counters
        assert ledger._released is None

    def test_released_state_does_not_survive_release(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 60)
        assert ledger.announce(origin)
        assert ledger.withdraw(origin)
        assert ledger._released is not None
        ledger.release()
        assert ledger._released is None
        before = engine.metrics.counters["engine.convergences"]
        assert ledger.announce(origin)
        assert engine.metrics.counters["engine.convergences"] == before + 1

    def test_only_a_sole_announcement_is_released(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        for asn in (50, 60):
            assert ledger.announce(node(mini_view, asn), origin_asn=asn)
        assert ledger.withdraw(node(mini_view, 50))  # re-bases 60 cold
        assert ledger._released is None
        assert ledger.withdraw(node(mini_view, 60))
        assert ledger._released is not None
        assert ledger._released[0].entry == AnnounceEntry(node(mini_view, 60), 60)

    def test_revived_state_keeps_the_chain_exact(self, engine, mini_view):
        """A revived slot 0 rewinds and stacks like a converged one."""
        ledger = PrefixLedger(engine)
        legit, attacker = node(mini_view, 50), node(mini_view, 60)
        assert ledger.announce(legit)
        assert ledger.withdraw(legit)
        assert ledger.announce(legit)
        assert ledger.announce(attacker)
        assert ledger.checksum() == full_converge(engine, ledger.entries).checksum()
        assert ledger.withdraw(attacker)
        assert ledger.checksum() == engine.converge(legit).checksum()

    def test_validated_revive_checks_the_released_state(self, mini_view):
        ledger = PrefixLedger(RoutingEngine(mini_view, validate=True))
        origin = node(mini_view, 50)
        assert ledger.announce(origin)
        assert ledger.withdraw(origin)
        released = ledger._released[1]
        set_route(released, origin, length=released.route(origin)[1] + 7)
        with pytest.raises(RuntimeError, match="state corruption"):
            ledger.announce(origin)


class TestValidateMode:
    def test_validated_ledger_records_checksums(self, mini_view):
        ledger = PrefixLedger(RoutingEngine(mini_view, validate=True))
        assert ledger.announce(node(mini_view, 50))
        assert ledger.announce(node(mini_view, 60))
        assert all(slot.checksum for slot in ledger._slots)
        assert ledger.withdraw(node(mini_view, 60))  # tripwire passes

    def test_rewind_tripwire_catches_external_corruption(self, mini_view):
        ledger = PrefixLedger(RoutingEngine(mini_view, validate=True))
        origin_a = node(mini_view, 50)
        assert ledger.announce(origin_a)
        assert ledger.announce(node(mini_view, 60))
        # Corrupt a cell the second delta never touched: the first
        # origin's own entry (an origin route is never displaced).
        set_route(ledger._state, origin_a, length=ledger._state.route(origin_a)[1] + 7)
        with pytest.raises(RuntimeError, match="journal corruption"):
            ledger.withdraw(node(mini_view, 60))

    def test_rewind_tripwire_on_a_rewind_to_a_journaled_slot(self, mini_view):
        ledger = PrefixLedger(RoutingEngine(mini_view, validate=True))
        origin_a = node(mini_view, 50)
        for asn in (50, 60, 70):
            assert ledger.announce(node(mini_view, asn))
        assert ledger._slots[1].delta is not None
        set_route(ledger._state, origin_a, length=ledger._state.route(origin_a)[1] + 7)
        with pytest.raises(RuntimeError, match="journal corruption"):
            ledger.withdraw(node(mini_view, 70))  # rewinds to slot 1


class TestClaimedPaths:
    """The ledger carries and pads claimed AS paths like the batch lab."""

    def test_honest_announce_claims_itself(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 50)
        assert ledger.announce(origin, origin_asn=50)
        assert claimed_paths(ledger) == {origin: (50,)}
        assert ledger.entries[0].origin_length == 0

    def test_forged_path_sets_claimed_padding(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        origin = node(mini_view, 60)
        path = (60, 64512, 50)
        assert ledger.announce(origin, origin_asn=60, path=path)
        entry = ledger.entries[0]
        assert entry.claimed_path == path
        assert entry.origin_length == 2
        assert claimed_paths(ledger) == {origin: path}
        # The padding reaches the pass: identical to a cold converge at
        # the claimed length.
        reference = engine.converge(origin, origin_length=2)
        assert ledger.checksum() == reference.checksum()

    def test_padded_route_loses_where_honest_wins(self, engine, mini_view):
        """A deep forged claim competes at its claimed length — receivers
        that a type-0 squat would capture keep the legitimate route."""
        honest = PrefixLedger(engine)
        padded = PrefixLedger(engine)
        for ledger, path in ((honest, None), (padded, (60, 64512, 64513, 50))):
            assert ledger.announce(node(mini_view, 50), origin_asn=50)
            assert ledger.announce(node(mini_view, 60), origin_asn=60, path=path)
        attacker = node(mini_view, 60)
        assert honest.state.holders_of(attacker) > padded.state.holders_of(attacker)

    def test_rewind_restores_paths(self, engine, mini_view):
        ledger = PrefixLedger(engine)
        legit = node(mini_view, 50)
        assert ledger.announce(legit, origin_asn=50)
        assert ledger.announce(node(mini_view, 60), origin_asn=60,
                               path=(60, 50))
        assert ledger.withdraw(node(mini_view, 60))
        assert claimed_paths(ledger) == {legit: (50,)}


class TestStreamTaxonomy:
    """Stream half of the conformance matrix (``tests/test_taxonomy.py``
    holds the batch half): compile each grid cell, replay it, and demand
    the monitor's live verdict equal the batch detector's postmortem."""

    TARGET, ATTACKER = 50, 60

    @pytest.fixture
    def lab(self, mini_graph) -> HijackLab:
        return HijackLab(mini_graph, seed=0)

    def full_detector(self, lab) -> HijackDetector:
        return HijackDetector(
            probes=top_degree_probes(lab.graph, count=4),
            authority=PublicationState.full(lab.plan).table(),
            neighbors=NeighborRegistry.from_graph(lab.graph),
            relationships=lab.graph,
        )

    def replayed(self, lab, scenario):
        replayer = StreamReplayer(lab)
        replayer.monitor = OnlineMonitor(lab.view, self.full_detector(lab))
        report = replayer.run(compile_scenario(scenario))
        return replayer, report

    @pytest.mark.parametrize(
        "kind,path_kind", grid_cells(),
        ids=[f"{k.value}-{p.value}" for k, p in grid_cells()],
    )
    def test_stream_verdict_matches_batch(self, lab, kind, path_kind):
        scenario = lab.build_scenario(
            self.TARGET, self.ATTACKER, kind=kind, path_kind=path_kind,
            forged_depth=2,
        )
        batch = self.full_detector(lab).observe(lab.run_scenario(scenario))
        assert batch.detected  # the full ladder classifies every cell
        _replayer, report = self.replayed(lab, scenario)
        alarm = report.monitor.first_alarm
        assert alarm is not None, f"{kind.value}/{path_kind.value} never alarmed"
        assert alarm.verdict == batch.verdict.value
        assert alarm.prefix == scenario.prefix
        # Per-event replay judges the announcement the instant it lands.
        assert (alarm.latency_time, alarm.latency_events) == (0.0, 0)

    def test_replayed_claims_reach_the_monitor(self, mini_graph):
        """The resolved type-U / leak tails are the batch lab's, hop for
        hop — the monitor indicts the same claimed paths, as plain ints
        the JSON report accepts even off the array backend's numpy-backed
        states."""
        expected = {
            "unmodified": (40, 20, 10, 30, 50),
            "leak": (60, 40, 20, 10, 30, 50),
        }
        from repro.attacks.scenario import HijackKind, PathKind

        for backend in ("reference", "array"):
            lab = HijackLab(mini_graph, seed=0, backend=backend)
            for kind, marker in (
                (HijackKind.ORIGIN, "unmodified"),
                (HijackKind.ROUTE_LEAK, "leak"),
            ):
                scenario = lab.build_scenario(
                    self.TARGET, self.ATTACKER, kind=kind, path_kind=PathKind.TYPE_U
                )
                replayer, report = self.replayed(lab, scenario)
                ledger = replayer.ledger(scenario.prefix)
                attacker_node = lab.view.node_of(self.ATTACKER)
                claimed = ledger.entry_of[attacker_node].claimed_path
                assert claimed == expected[marker]
                assert all(type(hop) is int for hop in claimed)
                assert report.monitor.first_alarm.culprit_paths == (
                    expected[marker],
                )
                assert lab.run_scenario(scenario).claimed_path == expected[marker]
                json.dumps(report.as_dict())

    def test_replay_with_no_route_is_a_noop(self, lab):
        """A replay marker with nothing to replay fizzles: counted as a
        noop, no ledger entry, no alarm — the batch fizzle, streamed."""
        prefix = lab.target_prefix(self.TARGET)
        replayer = StreamReplayer(lab)
        replayer.monitor = OnlineMonitor(lab.view, self.full_detector(lab))
        report = replayer.run([
            Announce(at=0.0, prefix=prefix, origin_asn=self.ATTACKER,
                     replay="unmodified"),
        ])
        assert report.events_noop == 1
        assert report.events_applied == 1  # applied, resolved to nothing
        assert replayer.ledger(prefix) is None
        assert report.monitor.alarms == ()

    def test_batched_taxonomy_alarm_charges_queue_time(self, lab):
        """Latency accounting holds for path-forged cells too: a type-1
        claim queued behind a batch window pays the window in latency."""
        from repro.attacks.scenario import HijackKind, PathKind

        scenario = lab.build_scenario(
            self.TARGET, self.ATTACKER,
            kind=HijackKind.ORIGIN, path_kind=PathKind.TYPE_1,
        )
        replayer = StreamReplayer(lab, batch_window=2.0)
        replayer.monitor = OnlineMonitor(lab.view, self.full_detector(lab))
        for event in compile_scenario(scenario):
            replayer.submit(event)
        from repro.stream.events import Withdraw

        # Push the clock past the window so the batch flushes at its
        # virtual deadline (t = 0 + 2), one second after the forged
        # announce at t=1.
        replayer.submit(
            Withdraw(at=10.0, prefix=scenario.prefix, origin_asn=self.ATTACKER)
        )
        report = replayer.finish()
        alarm = report.monitor.first_alarm
        assert alarm is not None
        assert alarm.verdict == "forged-path"
        assert alarm.at == 2.0
        assert alarm.latency_time == 1.0


class TestHistoricalDataParity:
    """Fig. 7's detector, batch vs live (one judge, two observers).

    The batch "historical data" detector judges against the one ROA the
    target would publish; the live monitor gets that ROA as a
    ``RoaPublish`` ahead of the scenario's events. The monitor must then
    alarm exactly on the attacks the batch path detects, with the same
    verdict and the same triggered probes.
    """

    TARGET, ATTACKER = 50, 60

    @pytest.fixture
    def lab(self, mini_graph) -> HijackLab:
        return HijackLab(mini_graph, seed=0)

    def live(self, lab, probes, scenario):
        replayer = StreamReplayer(lab, detector=HijackDetector(probes))
        roa = RoaPublish(
            at=0.0, prefix=scenario.prefix, origin_asn=scenario.target_asn
        )
        return replayer.run([roa, *compile_scenario(scenario)]).monitor

    @pytest.mark.parametrize("probe_set", ["everyone", "self"])
    @pytest.mark.parametrize(
        "kind,path_kind", grid_cells(),
        ids=[f"{k.value}-{p.value}" for k, p in grid_cells()],
    )
    def test_live_alarms_iff_batch_detects(self, lab, kind, path_kind, probe_set):
        scenario = lab.build_scenario(
            self.TARGET, self.ATTACKER, kind=kind, path_kind=path_kind,
            forged_depth=2,
        )
        # Every AS probes (sees every polluting cell), or only the
        # attacker, whose own announcement is never a sighting.
        members = lab.graph.asns() if probe_set == "everyone" else [self.ATTACKER]
        probes = ProbeSet(probe_set, frozenset(members))
        batch = HijackDetector(probes).observe(lab.run_scenario(scenario))
        assert batch.seen is (probe_set == "everyone")
        monitor = self.live(lab, probes, scenario)
        assert [
            (alarm.verdict, frozenset(alarm.triggered_probes))
            for alarm in monitor.alarms
        ] == (
            [(batch.verdict.value, batch.triggered_probes)] if batch.detected else []
        )

    def test_a_probe_never_witnesses_its_own_announcement(self, lab):
        scenario = lab.build_scenario(self.TARGET, self.ATTACKER)
        probes = ProbeSet("self", frozenset([self.ATTACKER]))
        batch = HijackDetector(probes).observe(lab.run_scenario(scenario))
        assert not batch.seen and not batch.detected
        assert self.live(lab, probes, scenario).alarms == ()


class TestMetrics:
    def test_ledger_counters(self, mini_view):
        metrics = Metrics()
        ledger = PrefixLedger(RoutingEngine(mini_view), metrics=metrics)
        for asn in (50, 60, 70):
            assert ledger.announce(node(mini_view, asn))
        assert ledger.withdraw(node(mini_view, 50))  # rewinds 3, replays 2
        counters = metrics.snapshot()["counters"]
        assert counters["stream.ledger.convergences"] == 5
        assert counters["stream.ledger.reverts"] == 3
        assert counters["stream.ledger.replays"] == 2
        assert counters["stream.ledger.cells_installed"] > 0
