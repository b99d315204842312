"""The sharded replay plane: per-prefix ledgers across worker shards.

One :class:`~repro.stream.replay.StreamReplayer` is a correct monitor
but a single serial pipeline. The service splits the prefix space across
*shards* — each shard owns its own replayer, whose online monitor
judges with that shard's live ROA table — so independent prefixes keep
independent ledger families.

The routing rule is the correctness-bearing part. Announcements and
withdrawals are routed by **covering-root affinity**: the shard anchor
for an NLRI is the shortest *registered* prefix covering it (falling
back to the NLRI itself), hashed once and pinned. That keeps a tenant's
covering prefix and every hijacked more-specific on the same shard,
which two pieces of machinery silently require:

* the replay resolver (type-U / route-leak claims) does a longest-match
  walk over the *local* shard's ledgers to find the route the announcer
  re-announces;
* reactive deaggregation announces more-specifics that must compete —
  by longest-prefix match — against the hijacked NLRI in the same
  ledger family.

``RoaPublish`` / ``RoaRevoke`` / ``DefenseActivate`` events are
broadcast to every shard: registry and deployer state are global, and
keeping each shard's live :class:`~repro.registry.roa.RoaTable` complete
means each shard's detector judges with full knowledge.
"""

from __future__ import annotations

import zlib

from repro.attacks.lab import HijackLab
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet, top_degree_probes
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.prefixes.prefix import Prefix
from repro.registry.neighbors import NeighborRegistry
from repro.service.tenants import TenantRegistry
from repro.stream.events import (
    Announce,
    StreamEvent,
    StreamFormatError,
    Withdraw,
    parse_event_line,
)
from repro.stream.incremental import PrefixLedger
from repro.stream.monitor import StreamAlarm
from repro.stream.replay import StreamReplayer

__all__ = ["ShardPlane"]


class ShardPlane:
    """*shards* independent replayer+monitor pipelines over one lab.

    Each shard's detector runs the full path-aware rule ladder: the
    shard's live ROA table, first-hop data published for every AS
    (:meth:`NeighborRegistry.from_graph`) and full topology knowledge —
    the strongest detector the taxonomy work built, now always-on.

    One event that fails inside a shard is recorded in :attr:`errors`
    (bounded) and never escapes :meth:`submit` or :meth:`flush`: the
    same per-event isolation the replayer gives its batch.
    """

    def __init__(
        self,
        lab: HijackLab,
        *,
        shards: int = 1,
        registry: TenantRegistry | None = None,
        probes: ProbeSet | None = None,
        batch_window: float = 0.0,
        queue_limit: int = 64,
        metrics: Metrics | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.lab = lab
        self.shards = shards
        self.registry = registry if registry is not None else TenantRegistry()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.probes = probes if probes is not None else top_degree_probes(lab.graph)
        detector = HijackDetector(
            self.probes,
            neighbors=NeighborRegistry.from_graph(lab.graph),
            relationships=lab.graph,
        )
        self._replayers = [
            StreamReplayer(
                lab,
                detector=detector,
                batch_window=batch_window,
                queue_limit=queue_limit,
                metrics=self.metrics,
            )
            for _ in range(shards)
        ]
        self._pinned: dict[Prefix, int] = {}
        self._alarm_cursors = [0] * shards
        self._malformed = 0
        self._ingested = 0
        self.errors: list[str] = []

    # -- routing -----------------------------------------------------------

    def shard_of(self, prefix: Prefix) -> int:
        """The shard that owns *prefix*'s ledger family (stable once seen)."""
        pinned = self._pinned.get(prefix)
        if pinned is not None:
            return pinned
        anchor = self.registry.covering_root(prefix) or prefix
        shard = self._pinned.get(anchor)
        if shard is None:
            shard = zlib.crc32(str(anchor).encode("ascii")) % self.shards
            self._pinned[anchor] = shard
        if prefix != anchor:
            self._pinned[prefix] = shard
        return shard

    def route(self, event: StreamEvent) -> int | None:
        """Target shard for *event*; ``None`` means broadcast to all."""
        if isinstance(event, (Announce, Withdraw)):
            return self.shard_of(event.prefix)
        return None

    # -- ingestion ---------------------------------------------------------

    def note_malformed(self, error: StreamFormatError) -> None:
        """Count (and bound-record) one malformed ingest line."""
        self._malformed += 1
        self.metrics.count("service.ingest.malformed")
        self._record_error(f"malformed line: {error}")

    def submit(self, event: StreamEvent) -> None:
        """Route and submit one typed event (broadcasts go everywhere)."""
        self._ingested += 1
        target = self.route(event)
        shards = range(self.shards) if target is None else (target,)
        for shard in shards:
            try:
                self._replayers[shard].submit(event)
            except Exception as error:  # per-event isolation, by contract
                self._record_error(f"shard {shard}: {error}")

    def submit_line(self, line: str) -> bool:
        """Parse and submit one JSONL line; malformed lines are counted.

        Parsing happens once, centrally, *before* routing — a malformed
        line has no prefix to route by. Returns ``True`` if submitted.
        """
        try:
            event = parse_event_line(line)
        except StreamFormatError as error:
            self.note_malformed(error)
            return False
        self.submit(event)
        return True

    def flush(self) -> int:
        """Flush every shard's pending batch; returns events applied."""
        applied = 0
        for shard, replayer in enumerate(self._replayers):
            try:
                applied += replayer.flush()
            except Exception as error:  # one shard's failure must not stop the rest
                self._record_error(f"shard {shard}: {error}")
        return applied

    def _record_error(self, message: str) -> None:
        if len(self.errors) < 32:
            self.errors.append(message)

    # -- queries -----------------------------------------------------------

    @property
    def clock(self) -> float:
        return max(replayer.clock for replayer in self._replayers)

    @property
    def malformed(self) -> int:
        return self._malformed

    @property
    def ingested(self) -> int:
        return self._ingested

    def replayer(self, shard: int) -> StreamReplayer:
        return self._replayers[shard]

    def authority_size(self) -> int:
        return len(self._replayers[0].authority)

    def drain_alarms(self) -> list[tuple[int, StreamAlarm]]:
        """New alarms since the last drain, as (shard, alarm) pairs."""
        drained: list[tuple[int, StreamAlarm]] = []
        for shard, replayer in enumerate(self._replayers):
            assert replayer.monitor is not None  # built with a detector
            alarms = replayer.monitor.alarms
            cursor = self._alarm_cursors[shard]
            for alarm in alarms[cursor:]:
                drained.append((shard, alarm))
            self._alarm_cursors[shard] = len(alarms)
        drained.sort(key=lambda item: (item[1].at, item[0]))
        return drained

    def ledgers(self) -> dict[Prefix, PrefixLedger]:
        """Every live ledger across all shards (prefixes never collide)."""
        merged: dict[Prefix, PrefixLedger] = {}
        for replayer in self._replayers:
            merged.update(replayer.ledgers())
        return merged

    def counts(self) -> dict[str, int]:
        """Aggregated replayer counters plus the plane's own accounting.

        ``submitted`` counts per-shard submissions (a broadcast lands on
        every shard); ``ingested`` counts events the plane accepted.
        """
        totals = {
            "submitted": 0,
            "applied": 0,
            "coalesced": 0,
            "malformed": self._malformed,
            "out_of_order": 0,
            "noop": 0,
            "flushes": 0,
            "backpressure_flushes": 0,
        }
        for replayer in self._replayers:
            for key, value in replayer.counts.items():
                totals[key] += value
        totals["ingested"] = self._ingested
        return totals
