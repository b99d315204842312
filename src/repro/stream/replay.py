"""The replay engine: simulated clock, bounded queue, error isolation.

:class:`StreamReplayer` is the piece that makes the stream subsystem a
*system* rather than a data structure: it consumes events (typed or raw
JSONL lines), advances a virtual clock, batches events through a bounded
queue, applies them to per-prefix :class:`~repro.stream.incremental
.PrefixLedger`\\ s, keeps the defensive configuration live (ROAs publish
and revoke, deployers activate mid-stream), and feeds the
:class:`~repro.stream.monitor.OnlineMonitor` after every flush.

Operational semantics, chosen to be boring and explicit:

* **clock** — the max event timestamp seen; an event older than the
  clock is counted ``out_of_order`` but still applied (BGP collectors
  deliver such updates too; dropping them would hide data).
* **batching** — events accumulate in the pending queue until either the
  incoming event's timestamp is more than ``batch_window`` past the
  oldest pending one (time flush — the flush happens at the window's
  virtual *deadline*, so the clock never jumps over it) or the queue
  hits ``queue_limit`` (backpressure flush). ``batch_window=0``
  degenerates to per-event application. Announce/withdraw ground truth
  is anchored at *arrival*, so time spent queued is charged to
  detection latency.
* **coalescing** — an announce and a later withdraw of the same
  (prefix, origin) *within one batch* cancel: the route never existed
  for any observer. A withdraw whose announcement predates the batch is
  never cancelled against a batch announce — that would resurrect the
  pre-existing route. Cancellation is outcome-preserving (the surviving
  ledger chain is identical), so batched and unbatched replays of the
  same stream converge to checksum-identical states; only the monitor's
  sampling times — and therefore detection latency — differ.
* **error isolation** — a malformed line, a failing event or a failing
  monitor observation is counted and recorded (bounded), never fatal:
  one bad update must not take the monitor down.

Defense changes are not retroactive: each announce captures the blocked
set in force at apply time (a later ``RoaPublish`` does not evict an
installed bogus route — exactly the paper's receiver-side blocking,
which drops announcements, not RIB entries).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import received_path
from repro.defense.deployment import Defense
from repro.defense.strategies import DeploymentStrategy
from repro.detection.detector import HijackDetector
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.prefixes.prefix import Prefix
from repro.registry.roa import RoaTable, RouteOriginAuthorization
from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    RoaRevoke,
    StreamEvent,
    StreamFormatError,
    Withdraw,
    parse_event_line,
)
from repro.stream.incremental import PrefixLedger
from repro.stream.monitor import MonitorReport, OnlineMonitor
from repro.util.lines import OVERLONG_LINE

__all__ = ["ReplayReport", "StreamReplayer"]


@dataclass(frozen=True)
class ReplayReport:
    """End-of-stream accounting: what arrived, what applied, what broke."""

    clock: float
    events_submitted: int
    events_applied: int
    events_coalesced: int
    events_malformed: int
    events_out_of_order: int
    events_noop: int
    flushes: int
    backpressure_flushes: int
    errors: tuple[str, ...]
    errors_dropped: int
    prefixes: dict[str, dict[str, object]] = field(default_factory=dict)
    monitor: MonitorReport | None = None

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "clock": self.clock,
            "events": {
                "submitted": self.events_submitted,
                "applied": self.events_applied,
                "coalesced": self.events_coalesced,
                "malformed": self.events_malformed,
                "out_of_order": self.events_out_of_order,
                "noop": self.events_noop,
            },
            "flushes": self.flushes,
            "backpressure_flushes": self.backpressure_flushes,
            "errors": list(self.errors),
            "errors_dropped": self.errors_dropped,
            "prefixes": self.prefixes,
        }
        if self.monitor is not None:
            payload["monitor"] = self.monitor.as_dict()
        return payload


class StreamReplayer:
    """Drive a stream of control-plane events over a lab's network.

    Built on a :class:`~repro.attacks.lab.HijackLab` for its view,
    engine, address plan and *initial* defense. :attr:`defense`, asked
    every drop decision, is a copy of it judging against a live
    :class:`RoaTable` (:attr:`authority`, seeded from the lab's authority
    when that is iterable), and a ``DefenseActivate`` replaces it with one
    that has the new deployers, so ``RoaPublish``/``RoaRevoke``/
    ``DefenseActivate`` events take effect mid-stream.

    Given a *detector* template, the replayer builds :attr:`monitor`
    around a copy of it whose ``authority`` is the live :attr:`authority`,
    so published ROAs change its verdicts as they land; every monitoring
    front end wires its monitor this way. The template must not bring an
    authority of its own: a detector judging against any other table
    would silently ignore the stream's ROA events.
    """

    def __init__(
        self,
        lab: HijackLab,
        *,
        detector: HijackDetector | None = None,
        batch_window: float = 0.0,
        queue_limit: int = 64,
        max_errors: int = 32,
        metrics: Metrics | None = None,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if detector is not None and detector.authority is not None:
            raise ValueError(
                "the replayer binds its detector to its live ROA table; "
                "pass a detector without an authority"
            )
        self.lab = lab
        self.batch_window = batch_window
        self.queue_limit = queue_limit
        self.max_errors = max_errors
        self.metrics = metrics if metrics is not None else NULL_METRICS
        base = lab.defense
        seed_roas = base.authority if isinstance(base.authority, Iterable) else ()
        self.authority = RoaTable(seed_roas)
        self.monitor: OnlineMonitor | None = None
        if detector is not None:
            self.monitor = OnlineMonitor(
                lab.view,
                dataclasses.replace(detector, authority=self.authority),
                metrics=self.metrics,
            )
        self.defense: Defense = dataclasses.replace(
            base,
            strategy=DeploymentStrategy("stream", base.strategy.deployers),
            authority=self.authority,
        )
        self._node_of = lab.view.nodes_by_asn
        self._ledgers: dict[Prefix, PrefixLedger] = {}
        self._pending: list[StreamEvent] = []
        self.clock = 0.0
        self.errors: list[str] = []
        self._errors_dropped = 0
        self._counts = {
            "submitted": 0,
            "applied": 0,
            "coalesced": 0,
            "malformed": 0,
            "out_of_order": 0,
            "noop": 0,
            "flushes": 0,
            "backpressure_flushes": 0,
        }

    # -- queries -----------------------------------------------------------

    def ledger(self, prefix: Prefix) -> PrefixLedger | None:
        """The ledger of *prefix*, or ``None`` if no event has opened one."""
        return self._ledgers.get(prefix)

    def covering_ledgers(self, prefix: Prefix) -> list[PrefixLedger]:
        """The ledgers whose prefix covers *prefix* and that hold a state,
        longest prefix first (ties in insertion order): the order a
        longest-prefix-match lookup falls through them."""
        covering = sorted(
            (
                (stored, ledger)
                for stored, ledger in self._ledgers.items()
                if ledger.state is not None and stored.contains(prefix)
            ),
            key=lambda item: -item[0].length,
        )
        return [ledger for _stored, ledger in covering]

    @property
    def counts(self) -> dict[str, int]:
        """A copy of the running event counters (``submitted`` … ``flushes``)."""
        return dict(self._counts)

    # -- ingestion ---------------------------------------------------------

    def submit(self, event: StreamEvent) -> None:
        """Queue one typed event; may trigger a time or backpressure flush."""
        at = event.at
        pending = self._pending
        if pending and at - pending[0].at > self.batch_window:
            # The pending batch's window expired before this event: it
            # flushed (in virtual time) at its deadline, not at event.at
            # — and strictly before this event exists to the monitor.
            deadline = pending[0].at + self.batch_window
            if deadline > self.clock:
                self.clock = deadline
            self.flush()
            pending = self._pending
        counts, metrics = self._counts, self.metrics
        counts["submitted"] += 1
        if metrics.enabled:
            metrics.count("stream.replay.submitted")
        monitor = self.monitor
        if monitor is not None:
            monitor.note_event()
            # Ground-truth anchoring happens at *arrival*: detection
            # latency must include time an update spends queued.
            if isinstance(event, Announce):
                monitor.note_announce(event.prefix, event.origin_asn, at)
            elif isinstance(event, Withdraw):
                monitor.note_withdraw(event.prefix, event.origin_asn)
        if at < self.clock:
            counts["out_of_order"] += 1
            metrics.count("stream.replay.out_of_order")
        else:
            self.clock = at
        pending.append(event)
        if len(pending) >= self.queue_limit:
            counts["backpressure_flushes"] += 1
            metrics.count("stream.replay.backpressure_flushes")
            self.flush()

    def submit_line(self, line: str) -> None:
        """Parse and queue one JSONL line; malformed lines are counted."""
        try:
            event = parse_event_line(line)
        except StreamFormatError as error:
            self.note_malformed(error)
            return
        self.submit(event)

    def submit_lines(self, lines: Iterable[bytes | None]) -> int:
        """Feed raw JSONL lines through the tolerant path.

        *lines* is what :func:`~repro.util.lines.iter_chunk_lines` yields.
        Each line is decoded as UTF-8 with replacement, so an invalid
        byte costs one malformed line and not the run; ``None`` (a line
        dropped as overlong) counts as one malformed line. Blank lines
        are skipped. Returns the number of non-blank lines consumed.
        """
        consumed = 0
        for raw in lines:
            if raw is None:
                consumed += 1
                self.note_malformed(StreamFormatError(OVERLONG_LINE))
                continue
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            consumed += 1
            self.submit_line(line)
        return consumed

    def run(self, events: Iterable[StreamEvent]) -> ReplayReport:
        """Replay a whole event sequence and return the final report."""
        for event in events:
            self.submit(event)
        return self.finish()

    def finish(self) -> ReplayReport:
        """Flush whatever is pending and assemble the report."""
        self.flush()
        return self.report()

    # -- batch machinery ---------------------------------------------------

    def flush(self) -> int:
        """Apply the pending batch now; returns events applied."""
        if not self._pending:
            return 0
        batch, coalesced = self._coalesce(self._pending)
        self._pending = []
        self._counts["coalesced"] += coalesced
        self._counts["flushes"] += 1
        self.metrics.count("stream.replay.coalesced", coalesced)
        self.metrics.count("stream.replay.flushes")
        touched: set[Prefix] = set()
        applied = 0
        with self.metrics.span("stream.replay.flush"):
            for event in batch:
                try:
                    if isinstance(event, Announce):
                        self._apply_announce(event, touched)
                    else:
                        self._apply(event, touched)
                except Exception as error:  # per-event isolation, by contract
                    self.note_error(f"{type(event).__name__} at {event.at}: {error}")
                else:
                    applied += 1
        self._counts["applied"] += applied
        self.metrics.count("stream.replay.applied", applied)
        for prefix in touched:
            # A flap revives its released state only within this batch.
            self._ledgers[prefix].release()
        if self.monitor is not None:
            # Prefixes are observed in text order; one needs no sort.
            for prefix in sorted(touched, key=str) if len(touched) > 1 else touched:
                ledger = self.ledger(prefix)
                if ledger is None:
                    continue
                try:
                    self.monitor.observe(self.clock, prefix, ledger)
                except Exception as error:  # per-prefix isolation, as for events
                    self.note_error(f"observe {prefix} at {self.clock}: {error}")
        return applied

    def _coalesce(
        self, pending: list[StreamEvent]
    ) -> tuple[list[StreamEvent], int]:
        """Cancel announce→withdraw pairs opened *within* this batch.

        Tracked per (prefix, origin) against the pre-batch active state:
        only a withdraw that closes an announcement opened earlier in the
        same batch cancels with it, and only when no duplicate announce
        of that key falls between them. Removing such a pair leaves the
        surviving ledger chain — and hence the flushed state — identical.
        Only a withdraw cancels anything, so only the keys some withdraw
        in the batch names are tracked, and a batch without a withdraw
        comes back as it is.
        """
        withdrawn = {
            (event.prefix, event.origin_asn)
            for event in pending if isinstance(event, Withdraw)
        }
        if not withdrawn:
            return pending, 0
        removed: set[int] = set()
        openers: dict[tuple[Prefix, int], list[int]] = {}
        active: dict[tuple[Prefix, int], bool] = {}
        for index, event in enumerate(pending):
            if not isinstance(event, (Announce, Withdraw)):
                continue
            key = (event.prefix, event.origin_asn)
            if key not in withdrawn:
                continue
            if key not in active:
                ledger = self._ledgers.get(event.prefix)
                node = self._node_of.get(event.origin_asn)
                active[key] = (
                    ledger is not None and node is not None and ledger.is_active(node)
                )
            if isinstance(event, Announce):
                if not active[key]:
                    active[key] = True
                    openers.setdefault(key, []).append(index)
                else:
                    # A duplicate inside a run opened in this batch would
                    # become the real announce once its opener cancelled,
                    # so that run is applied as it is.
                    openers.pop(key, None)
            else:
                if active[key]:
                    active[key] = False
                    stack = openers.get(key)
                    if stack:
                        removed.add(stack.pop())
                        removed.add(index)
        kept = [event for index, event in enumerate(pending) if index not in removed]
        return kept, len(removed)

    def _apply(self, event: StreamEvent, touched: set[Prefix]) -> None:
        """Apply any event but an announce (``flush`` hands those to
        :meth:`_apply_announce` itself)."""
        if isinstance(event, Withdraw):
            self._apply_withdraw(event, touched)
        elif isinstance(event, RoaPublish):
            self.authority.add(
                RouteOriginAuthorization(
                    event.prefix, event.origin_asn, event.max_length
                )
            )
        elif isinstance(event, RoaRevoke):
            try:
                self.authority.remove(
                    RouteOriginAuthorization(
                        event.prefix, event.origin_asn, event.max_length
                    )
                )
            except KeyError:
                self._note_noop()
        elif isinstance(event, DefenseActivate):
            deployers = self.defense.strategy.deployers.union(event.deployer_asns)
            strategy = DeploymentStrategy("stream", deployers)
            self.defense = dataclasses.replace(self.defense, strategy=strategy)
        else:  # pragma: no cover - the event union is closed
            raise TypeError(f"unknown event {event!r}")

    def _apply_announce(self, event: Announce, touched: set[Prefix]) -> None:
        node = self._node_of.get(event.origin_asn)
        if node is None:
            raise ValueError(f"unknown origin AS{event.origin_asn}")
        ledger = self._ledgers.get(event.prefix)
        if ledger is not None and ledger.is_active(node):
            # A duplicate changes nothing, so it is noticed before the
            # replay lookup and the defense evaluation, not after; it is
            # most of a live feed, so it is counted here, not in _note_noop.
            self._counts["noop"] += 1
            if self.metrics.enabled:
                self.metrics.count("stream.replay.noops")
            return
        if event.replay:
            # A type-U replay / route leak reuses the route the announcer
            # currently holds; with nothing to reuse the event is a noop
            # — the attack never launches, exactly as in the batch lab.
            tail = self._resolve_replay(event, node)
            if tail is None:
                self._note_noop()
                return
        elif event.path:
            tail = tuple(event.path)
        else:
            tail = None
        view = self.lab.view
        if ledger is None:
            ledger = PrefixLedger(self.lab.engine, metrics=self.metrics)
            self._ledgers[event.prefix] = ledger
        ledger.announce(
            node,
            origin_asn=event.origin_asn,
            blocked=self.defense.blocking_nodes(
                view, event.prefix, event.origin_asn, claimed_path=tail
            ),
            first_hop_filtered=self.defense.first_hop_filtered(
                self.lab.graph, self.lab.plan, event.prefix, event.origin_asn
            ),
            path=tail,
        )
        touched.add(event.prefix)

    def _resolve_replay(self, event: Announce, node: int) -> tuple[int, ...] | None:
        """The claimed path a replay marker resolves to right now.

        Longest-match lookup over the live ledgers covering the announced
        prefix: the announcer's currently selected route for that space
        is the one it re-announces, as its
        :func:`~repro.attacks.scenario.received_path` (a leak prepends the
        announcer). ``None`` when no covering ledger gives the announcer a
        route it does not originate itself.
        """
        leaker = event.origin_asn if event.replay == "leak" else None
        for ledger in self.covering_ledgers(event.prefix):
            tail = received_path(
                ledger.state, node, self.lab.view, ledger.origin_asns(), leaker=leaker
            )
            if tail is not None:
                return tail
        return None

    def _apply_withdraw(self, event: Withdraw, touched: set[Prefix]) -> None:
        node = self._node_of.get(event.origin_asn)
        if node is None:
            raise ValueError(f"unknown origin AS{event.origin_asn}")
        ledger = self._ledgers.get(event.prefix)
        if ledger is None or not ledger.withdraw(node):
            self._note_noop()
            return
        touched.add(event.prefix)

    def note_malformed(self, error: StreamFormatError) -> None:
        """Count one malformed input line and log it (bounded)."""
        self._counts["malformed"] += 1
        self.metrics.count("stream.replay.malformed")
        self._record_error(f"malformed line: {error}")

    def _note_noop(self) -> None:
        self._counts["noop"] += 1
        self.metrics.count("stream.replay.noops")

    def note_error(self, message: str) -> None:
        """Count one isolated failure and log it (bounded)."""
        self.metrics.count("stream.replay.errors")
        self._record_error(message)

    def _record_error(self, message: str) -> None:
        if len(self.errors) < self.max_errors:
            self.errors.append(message)
        else:
            self._errors_dropped += 1

    # -- summary -----------------------------------------------------------

    def report(self) -> ReplayReport:
        prefixes: dict[str, dict[str, object]] = {}
        for prefix, ledger in sorted(self._ledgers.items(), key=lambda kv: str(kv[0])):
            checksum = ledger.checksum()
            prefixes[str(prefix)] = {
                "active_origins": sorted(ledger.origin_asns().values()),
                "checksum": checksum,
            }
        return ReplayReport(
            clock=self.clock,
            events_submitted=self._counts["submitted"],
            events_applied=self._counts["applied"],
            events_coalesced=self._counts["coalesced"],
            events_malformed=self._counts["malformed"],
            events_out_of_order=self._counts["out_of_order"],
            events_noop=self._counts["noop"],
            flushes=self._counts["flushes"],
            backpressure_flushes=self._counts["backpressure_flushes"],
            errors=tuple(self.errors),
            errors_dropped=self._errors_dropped,
            prefixes=prefixes,
            monitor=self.monitor.report() if self.monitor is not None else None,
        )
