"""Compiling trace records into stream events and legal-origin state.

The cloudtrie exemplar pipeline is *build a trie from the RIB, then
classify a firehose of updates against it*; this module is that shape
for the repro's event model:

* :func:`compile_rib` folds a RIB dump into a :class:`RibBaseline` —
  the per-prefix **legal-origin sets** in a
  :class:`~repro.prefixes.trie.PrefixTrie` plus the initial
  :class:`~repro.stream.events.Announce` wave (one honest announce per
  distinct ``(prefix, origin)``, stamped with the RIB timestamp). A RIB
  dump has at most one entry per ``(peer, prefix)``; duplicates raise
  in strict mode (with line coordinates) and are counted
  (``ingest.duplicate_rib``) and dropped in lenient mode. The same
  ``(prefix, origin)`` seen via *different* peers is normal MOAS-free
  BGP and folds into one announce.

* :func:`compile_updates` lowers the update feed into
  ``Announce``/``Withdraw`` events whose real timestamps drive the
  replay engine's virtual clock. Timestamps must be non-decreasing:
  strict mode raises on regressions, lenient mode counts them
  (``ingest.out_of_order``) and passes the event through — the replay
  engine applies-and-counts late updates rather than dropping them.

Path conventions (see :mod:`repro.ingest.records`): a ``rib`` record's
path is the peer-received propagation path (origin **last**); an
``announce`` record's path is the claim as it left the announcer
(announcer **first**, claimed origin last), so a forged type-1/N claim
is exactly ``HijackScenario.forged_path`` and the honest claim is the
single-element ``(origin,)``. This is what makes
``events → records → events`` lossless for everything except replay
markers, which by construction only resolve against live routing state
and therefore cannot ride a trace file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.ingest.records import TraceFormatError, TraceReader, TraceRecord, TraceRow
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.prefixes.prefix import Prefix
from repro.prefixes.trie import PrefixTrie
from repro.stream.events import Announce, RoaPublish, StreamEvent, Withdraw

__all__ = [
    "RibBaseline",
    "UpdateCompiler",
    "compile_rib",
    "compile_updates",
]


@dataclass
class RibBaseline:
    """What a RIB dump pins down: who legitimately originates what.

    ``origins`` maps each announced prefix to its legal-origin set (the
    detection trie); ``announces`` is the initial event wave that
    reconstructs the dump's steady state through the replay engine,
    sorted by ``(at, prefix, origin)`` for determinism.
    """

    origins: PrefixTrie[set[int]] = field(default_factory=PrefixTrie)
    announces: list[Announce] = field(default_factory=list)
    entries: int = 0
    duplicates: int = 0
    misplaced: int = 0
    peers: set[int] = field(default_factory=set)

    @property
    def start_at(self) -> float:
        """The dump's epoch: the earliest announce timestamp (0.0 if empty)."""
        return self.announces[0].at if self.announces else 0.0

    def roa_wave(self) -> list[RoaPublish]:
        """One ROA per legal ``(prefix, origin)`` at the dump's epoch.

        The paper's "publish your route origins" lever applied to the
        whole baseline — feeding these before the announce wave lets
        the online monitor confirm conflicts as hijacks.
        """
        return [
            RoaPublish(at=self.start_at, prefix=prefix, origin_asn=origin)
            for prefix, legal in self.origins.items()
            for origin in sorted(legal)
        ]

    def as_dict(self) -> dict[str, object]:
        return {
            "entries": self.entries,
            "duplicates": self.duplicates,
            "misplaced": self.misplaced,
            "peers": len(self.peers),
            "prefixes": len(self.origins),
            "origins": {
                str(prefix): sorted(legal)
                for prefix, legal in self.origins.items()
            },
        }


def _located(source: str, line: int, message: str) -> TraceFormatError:
    return TraceFormatError(f"{source}:{line}: {message}")


def _rows(records: Iterable[TraceRecord]) -> Iterator[TraceRow]:
    """A reader's validated rows, or the same fields read off any other records."""
    if isinstance(records, TraceReader):
        return records.rows()
    return ((r.line, r.kind, r.at, r.peer_asn, r.prefix, tuple(r.path)) for r in records)


def compile_rib(
    records: Iterable[TraceRecord],
    *,
    strict: bool = False,
    metrics: Metrics | None = None,
) -> RibBaseline:
    """Fold RIB records into a :class:`RibBaseline` (see module docs)."""
    metrics = metrics if metrics is not None else NULL_METRICS
    source = str(records.path) if isinstance(records, TraceReader) else "<rib>"
    baseline = RibBaseline()
    seen_entries: set[tuple[int, Prefix]] = set()
    wave: dict[tuple[Prefix, int], Announce] = {}
    for line, kind, at, peer, prefix, path in _rows(records):
        if kind != "rib":
            error = _located(source, line, f"{kind} record in a RIB dump")
            if strict:
                raise error
            baseline.misplaced += 1
            metrics.count("ingest.misplaced")
            continue
        entry_key = (peer, prefix)
        if entry_key in seen_entries:
            error = _located(
                source, line,
                f"duplicate RIB entry for peer AS{peer} prefix {prefix}",
            )
            if strict:
                raise error
            baseline.duplicates += 1
            metrics.count("ingest.duplicate_rib")
            continue
        seen_entries.add(entry_key)
        baseline.entries += 1
        baseline.peers.add(peer)
        origin = path[-1]
        legal = baseline.origins.setdefault(prefix, set())
        legal.add(origin)
        key = (prefix, origin)
        if key not in wave or at < wave[key].at:
            wave[key] = Announce(at=at, prefix=prefix, origin_asn=origin)
    baseline.announces = sorted(
        wave.values(), key=lambda event: (event.at, str(event.prefix),
                                          event.origin_asn)
    )
    metrics.count("ingest.rib_entries", baseline.entries)
    return baseline


class UpdateCompiler:
    """Lower update-feed records into stream events, counting anomalies.

    Iterable once. A :class:`TraceReader` is read through
    :meth:`~TraceReader.rows`, so each update line becomes one event
    and no :class:`TraceRecord`. After the sweep :attr:`events` is the
    number of events produced, :attr:`misplaced` the ``rib`` records
    lenient mode skipped, and :attr:`out_of_order` the records whose
    timestamp went back; those are counted and still emitted.
    """

    def __init__(
        self,
        records: Iterable[TraceRecord],
        *,
        strict: bool = False,
        metrics: Metrics | None = None,
    ) -> None:
        self.records = records
        self.strict = strict
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.source = (
            str(records.path) if isinstance(records, TraceReader) else "<updates>"
        )
        self.events = 0
        self.out_of_order = 0
        self.misplaced = 0

    def __iter__(self) -> Iterator[StreamEvent]:
        clock: float | None = None
        for line, kind, at, _peer, prefix, path in _rows(self.records):
            if kind == "rib":
                error = _located(self.source, line, "rib record in an update feed")
                if self.strict:
                    raise error
                self.misplaced += 1
                self.metrics.count("ingest.misplaced")
                continue
            if clock is not None and at < clock:
                error = _located(
                    self.source, line,
                    f"timestamp {at} precedes {clock} (feed must be non-decreasing)",
                )
                if self.strict:
                    raise error
                self.out_of_order += 1
                self.metrics.count("ingest.out_of_order")
            else:
                clock = at
            self.events += 1
            if kind == "withdraw":
                yield Withdraw(at=at, prefix=prefix, origin_asn=path[-1])
            else:
                # Announcer first, claimed origin last: a bare origin is
                # the honest claim; anything longer is the claim itself.
                yield Announce(
                    at=at, prefix=prefix, origin_asn=path[0],
                    path=path if len(path) > 1 else (),
                )


def compile_updates(
    records: Iterable[TraceRecord],
    *,
    strict: bool = False,
    metrics: Metrics | None = None,
) -> UpdateCompiler:
    """The update-feed compiler (an iterable of events; see class docs)."""
    return UpdateCompiler(records, strict=strict, metrics=metrics)

