"""The online hijack monitor: vantage points, MOAS alarms, latency.

Batch detection (:meth:`HijackDetector.observe
<repro.detection.detector.HijackDetector.observe>`) judges a *finished*
attack outcome. A live monitor never sees outcomes — it sees what its
probe ASes' selected routes say about a prefix *right now*, and its
quality is measured by **detection latency**: how many events (and how
much virtual time) pass between the bogus announcement entering the
stream and the first alarm. That latency is the paper's operational
stake — PHAS-style notification is only useful if it beats the outage
ticket — and it is what batch pollution metrics cannot express.

:class:`OnlineMonitor` is fed by the replay engine after every applied
batch: it re-reads each probe's installed route for the touched prefix
from the :class:`~repro.stream.incremental.PrefixLedger`, maps origin
nodes back to announcing ASNs and claimed AS paths, and hands the
observed :class:`~repro.detection.taxonomy.PathObservation` set to
:meth:`HijackDetector.observe_conflict
<repro.detection.detector.HijackDetector.observe_conflict>` — so the
full path-aware rule ladder (ROA origin check, first-hop verification,
link verification, valley-free export) runs live, cell by cell of the
attack grid. Alarm times are the *flush* times, so queue batching shows
up as measurable added latency — the backpressure/latency trade-off
becomes a number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.detector import HijackDetector
from repro.detection.taxonomy import PathObservation
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.prefixes.prefix import Prefix
from repro.stream.incremental import PrefixLedger
from repro.topology.view import RoutingView

__all__ = ["MonitorReport", "OnlineMonitor", "StreamAlarm"]


@dataclass(frozen=True)
class StreamAlarm:
    """One alarm the monitor raised, with its latency measurements.

    ``latency_time``/``latency_events`` measure from the most recent
    announcement of a culprit (the announcer behind each indicted claimed
    path, or behind every observed claim when the verdict indicts none)
    to the moment the monitor judged the conflict — virtual seconds and
    events processed respectively. ``triggered_probes`` are the probe
    ASes whose selected route carried a culprit claim at alarm time;
    ``culprit_paths`` are the indicted claims (claimed origin last),
    empty for an unverifiable conflict.
    """

    at: float
    prefix: Prefix
    origins: tuple[int, ...]
    verdict: str
    invalid_origins: tuple[int, ...]
    latency_time: float
    latency_events: int
    triggered_probes: tuple[int, ...]
    culprit_paths: tuple[tuple[int, ...], ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "at": self.at,
            "prefix": str(self.prefix),
            "origins": list(self.origins),
            "verdict": self.verdict,
            "invalid_origins": list(self.invalid_origins),
            "latency_time": self.latency_time,
            "latency_events": self.latency_events,
            "triggered_probes": list(self.triggered_probes),
            "culprit_paths": [list(path) for path in self.culprit_paths],
        }


@dataclass(frozen=True)
class MonitorReport:
    """End-of-stream summary: every alarm plus headline latency."""

    probe_set: str
    probe_count: int
    events_seen: int
    conflicts_judged: int
    alarms: tuple[StreamAlarm, ...]

    @property
    def first_alarm(self) -> StreamAlarm | None:
        return self.alarms[0] if self.alarms else None

    @property
    def detection_latency_time(self) -> float | None:
        """Virtual time to the first alarm; ``None`` if nothing fired."""
        first = self.first_alarm
        return first.latency_time if first else None

    @property
    def detection_latency_events(self) -> int | None:
        first = self.first_alarm
        return first.latency_events if first else None

    def as_dict(self) -> dict[str, object]:
        return {
            "probe_set": self.probe_set,
            "probe_count": self.probe_count,
            "events_seen": self.events_seen,
            "conflicts_judged": self.conflicts_judged,
            "alarm_count": len(self.alarms),
            "detection_latency_time": self.detection_latency_time,
            "detection_latency_events": self.detection_latency_events,
            "alarms": [alarm.as_dict() for alarm in self.alarms],
        }


class OnlineMonitor:
    """Vantage-point observers over a stream of per-prefix ledgers.

    The monitor only knows what its probes' selected routes show — an
    attack polluting no probe is invisible, exactly as in the batch
    Fig. 7 analysis, but measured live. A probe's own announcement is
    not a sighting: a probe that originates the prefix witnesses nothing
    for it, just as the batch path never counts the attacker's own node
    as polluted. Alarms deduplicate on
    ``(prefix, judged origin set, culprit paths)``: a flapping hijack
    re-raising the same conflict pages once, while a *new* origin joining
    the conflict, or a new culprit path behind the same origins, pages
    again.

    The replay engine drives three entry points: :meth:`note_event` per
    accepted event (the event-latency clock), :meth:`note_announce` /
    :meth:`note_withdraw` for ground-truth anchoring, and
    :meth:`observe` after each batch apply that touched a prefix.

    A verdict is a function of the prefix, the observation list and the
    detector's published data, so per prefix the monitor keeps the last
    list it judged, the :attr:`~HijackDetector.published_version` it
    judged it under and whether that judgement was a conflict. When the
    probes show the same list under the same version, the judgement is
    reused: it counts toward ``conflicts_judged`` as a re-judge would,
    and it cannot alarm, because the alarm it could raise has already
    been raised. ``stream.monitor.reused`` counts these reuses.
    """

    def __init__(
        self,
        view: RoutingView,
        detector: HijackDetector,
        *,
        metrics: Metrics | None = None,
    ) -> None:
        self.view = view
        self.detector = detector
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._probe_views: tuple[tuple[int, int], ...] = tuple(
            sorted(
                (asn, view.node_of(asn))
                for asn in detector.probes.asns
                if view.has_asn(asn)
            )
        )
        self._announced: dict[tuple[Prefix, int], tuple[float, int]] = {}
        self._alarm_keys: set[
            tuple[Prefix, tuple[int, ...], tuple[tuple[int, ...], ...]]
        ] = set()
        # prefix -> (published version, witnesses by tail, was a conflict)
        self._judged: dict[
            Prefix, tuple[int, dict[tuple[int, ...], list[int]], bool]
        ] = {}
        self._events_seen = 0
        self._conflicts_judged = 0
        self.alarms: list[StreamAlarm] = []

    # -- stream feed -------------------------------------------------------

    def note_event(self) -> None:
        """Tick the event clock (one accepted event entered the stream)."""
        self._events_seen += 1

    def note_announce(self, prefix: Prefix, origin_asn: int, at: float) -> None:
        """Anchor ground truth: *origin_asn* announced *prefix* at *at*."""
        key = (prefix, origin_asn)
        if key not in self._announced:  # a re-announcement keeps its anchor
            self._announced[key] = (at, self._events_seen)

    def note_withdraw(self, prefix: Prefix, origin_asn: int) -> None:
        """Drop the anchor so a re-announcement re-anchors latency."""
        self._announced.pop((prefix, origin_asn), None)

    def observe(self, at: float, prefix: Prefix, ledger: PrefixLedger) -> StreamAlarm | None:
        """Re-read the probes' routes for *prefix*; alarm on a judged conflict.

        *at* is the flush time of the batch that mutated the ledger —
        alarms raised out of a coalesced batch carry the batching delay
        in their latency, by design.
        """
        state = ledger.state
        if state is None:
            return None
        asn_of_origin = ledger.origin_asns()
        claimed = ledger.claimed_paths()
        witnesses_by_tail: dict[tuple[int, ...], list[int]] = {}
        announcer_by_tail: dict[tuple[int, ...], int] = {}
        for probe_asn, probe_node in self._probe_views:
            origin_node = state.origin_of[probe_node]
            if origin_node == -1 or origin_node == probe_node:
                continue  # no route, or the probe's own announcement
            announcer = asn_of_origin.get(origin_node)
            if announcer is None:  # defensively skip stale origins
                continue
            tail = claimed.get(origin_node, (announcer,))
            witnesses_by_tail.setdefault(tail, []).append(probe_asn)
            announcer_by_tail.setdefault(tail, announcer)
        if not witnesses_by_tail:
            return None
        version = self.detector.published_version
        judged = self._judged.get(prefix)
        if (
            judged is not None
            and judged[0] == version
            and judged[1] == witnesses_by_tail
        ):
            self.metrics.count("stream.monitor.reused")
            if judged[2]:
                self._conflicts_judged += 1
                self.metrics.count("stream.monitor.conflicts")
            return None
        observations = [
            PathObservation(tail=tail, witnesses=tuple(sorted(probes)))
            for tail, probes in sorted(witnesses_by_tail.items())
        ]
        report = self.detector.observe_conflict(prefix, observations)
        if version is not None:
            self._judged[prefix] = (version, witnesses_by_tail, report is not None)
        if report is None:
            return None
        self._conflicts_judged += 1
        self.metrics.count("stream.monitor.conflicts")
        if not report.alarm:
            return None
        key = (prefix, report.origins, report.culprit_paths)
        if key in self._alarm_keys:
            return None
        self._alarm_keys.add(key)
        # An unverifiable conflict indicts no single claim: blame them all.
        culprit_tails = report.culprit_paths or tuple(sorted(witnesses_by_tail))
        culprits = sorted({announcer_by_tail[tail] for tail in culprit_tails})
        anchors = [
            anchor
            for announcer in culprits
            if (anchor := self._announced.get((prefix, announcer))) is not None
        ]
        if anchors:
            anchor_at, anchor_seq = max(anchors)
            latency_time = max(0.0, at - anchor_at)
            latency_events = max(0, self._events_seen - anchor_seq)
        else:
            latency_time, latency_events = 0.0, 0
        triggered = tuple(
            sorted(
                probe
                for tail in culprit_tails
                for probe in witnesses_by_tail.get(tail, ())
            )
        )
        alarm = StreamAlarm(
            at=at,
            prefix=prefix,
            origins=report.origins,
            verdict=report.verdict.value,
            invalid_origins=report.invalid_origins,
            latency_time=latency_time,
            latency_events=latency_events,
            triggered_probes=triggered,
            culprit_paths=report.culprit_paths,
        )
        self.alarms.append(alarm)
        self.metrics.count("stream.monitor.alarms")
        if len(self.alarms) == 1:
            self.metrics.gauge("stream.monitor.first_alarm_latency_s", latency_time)
            self.metrics.gauge(
                "stream.monitor.first_alarm_latency_events", float(latency_events)
            )
        return alarm

    # -- summary -----------------------------------------------------------

    def report(self) -> MonitorReport:
        return MonitorReport(
            probe_set=self.detector.probes.name,
            probe_count=len(self.detector.probes),
            events_seen=self._events_seen,
            conflicts_judged=self._conflicts_judged,
            alarms=tuple(self.alarms),
        )
