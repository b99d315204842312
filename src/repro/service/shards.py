"""The replay plane: the service's one replayer and its alarm cursor.

The paper's detector is one set of probe ASes judging one routing
state, so the service runs one :class:`~repro.stream.replay
.StreamReplayer` whose online monitor judges with the replayer's live
ROA table. Every event — announcements, withdrawals, ``RoaPublish`` /
``RoaRevoke`` / ``DefenseActivate`` — lands on that replayer, so the
type-U/leak replay resolver and reactive deaggregation see every
ledger, and the detector judges with every published ROA.
"""

from __future__ import annotations

from repro.attacks.lab import HijackLab
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet, top_degree_probes
from repro.obs.metrics import Metrics
from repro.registry.neighbors import NeighborRegistry
from repro.stream.events import StreamEvent, StreamFormatError, parse_event_line
from repro.stream.monitor import StreamAlarm
from repro.stream.replay import StreamReplayer

__all__ = ["ShardPlane"]


class ShardPlane:
    """One replayer+monitor pipeline over one lab.

    The detector runs the full path-aware rule ladder: the replayer's
    live ROA table, first-hop data published for every AS
    (:meth:`NeighborRegistry.from_graph`) and full topology knowledge —
    the strongest detector the taxonomy work built, now always-on.

    Malformed lines and any event that fails inside :meth:`submit` or
    :meth:`flush` are counted in the replayer's bounded error log and
    never escape: the same per-event isolation the replayer gives its
    batch.
    """

    def __init__(
        self,
        lab: HijackLab,
        *,
        probes: ProbeSet | None = None,
        batch_window: float = 0.0,
        queue_limit: int = 64,
        metrics: Metrics | None = None,
    ) -> None:
        self.probes = probes if probes is not None else top_degree_probes(lab.graph)
        self.replayer = StreamReplayer(
            lab,
            detector=HijackDetector(
                self.probes,
                neighbors=NeighborRegistry.from_graph(lab.graph),
                relationships=lab.graph,
            ),
            batch_window=batch_window,
            queue_limit=queue_limit,
            metrics=metrics,
        )
        self.ingested = 0
        self._drained = 0

    def submit(self, event: StreamEvent) -> None:
        """Submit one typed event; a failure is logged, never raised."""
        self.ingested += 1
        try:
            self.replayer.submit(event)
        except Exception as error:  # per-event isolation, by contract
            self.replayer.note_error(f"{type(event).__name__} at {event.at}: {error}")

    def submit_line(self, line: str) -> bool:
        """Parse and submit one JSONL line; malformed lines are counted.

        Returns ``True`` if the line parsed and was submitted.
        """
        try:
            event = parse_event_line(line)
        except StreamFormatError as error:
            self.replayer.note_malformed(error)
            return False
        self.submit(event)
        return True

    def flush(self) -> int:
        """Flush the pending batch; returns events applied."""
        try:
            return self.replayer.flush()
        except Exception as error:  # a failed flush must not stop the service
            self.replayer.note_error(f"flush: {error}")
            return 0

    def drain_alarms(self) -> list[StreamAlarm]:
        """Alarms raised since the last drain, in raise order."""
        alarms = self.replayer.monitor.alarms  # type: ignore[union-attr]
        fresh = alarms[self._drained :]
        self._drained = len(alarms)
        return fresh
