"""The end-to-end ingest pipeline: trace files → replay → monitor report.

:class:`TracePipeline` binds a RIB dump and/or an update feed into one
ordered, *streaming* event sequence — ROA wave (optional), baseline
announce wave, then the update deltas — without ever materializing the
update feed (records flow chunk → parse → compile → event one at a
time). :func:`run_ingest` drives that sequence through a
:class:`~repro.stream.replay.StreamReplayer` (and, with probes, an
:class:`~repro.stream.monitor.OnlineMonitor`), producing the JSON
payload the ``repro-bgp ingest`` command and the golden-trace snapshot
tests pin byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.attacks.lab import HijackLab
from repro.detection.detector import HijackDetector
from repro.detection.probes import ProbeSet
from repro.ingest.compiler import (
    RibBaseline,
    UpdateCompiler,
    compile_rib,
    compile_updates,
)
from repro.ingest.records import TraceReader
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.stream.events import StreamEvent
from repro.stream.replay import ReplayReport, StreamReplayer

__all__ = ["TracePipeline", "run_ingest"]


class TracePipeline:
    """One trace workload: where the records come from, what they become.

    ``events()`` may be consumed once; afterwards ``stats()`` reports
    what the readers and compilers counted along the way. ``strict``
    propagates to every stage (reader parse errors, RIB duplicates,
    update-feed timestamp regressions).
    """

    def __init__(
        self,
        *,
        rib_path: str | Path | None = None,
        updates_path: str | Path | None = None,
        strict: bool = False,
        seed_roas: bool = False,
        metrics: Metrics | None = None,
    ) -> None:
        if rib_path is None and updates_path is None:
            raise ValueError("a trace pipeline needs a RIB dump, an update feed, or both")
        self.strict = strict
        self.seed_roas = seed_roas
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._rib_reader = (
            TraceReader(rib_path, strict=strict, metrics=self.metrics)
            if rib_path is not None else None
        )
        self._update_reader = (
            TraceReader(updates_path, strict=strict, metrics=self.metrics)
            if updates_path is not None else None
        )
        self._baseline: RibBaseline | None = None
        self._compiler: UpdateCompiler | None = None

    def baseline(self) -> RibBaseline | None:
        """The compiled RIB baseline (compiled on first call), if any."""
        if self._baseline is None and self._rib_reader is not None:
            self._baseline = compile_rib(
                self._rib_reader, strict=self.strict, metrics=self.metrics
            )
        return self._baseline

    def events(self) -> Iterator[StreamEvent]:
        """ROA wave → baseline announce wave → update deltas, in order."""
        baseline = self.baseline()
        if baseline is not None:
            if self.seed_roas:
                yield from baseline.roa_wave()
            yield from baseline.announces
        if self._update_reader is not None:
            self._compiler = compile_updates(
                self._update_reader, strict=self.strict, metrics=self.metrics
            )
            yield from self._compiler


    def stats(self) -> dict[str, object]:
        """Per-stage accounting, stable keys — part of the pinned report."""
        payload: dict[str, object] = {"seed_roas": self.seed_roas}
        if self._rib_reader is not None:
            baseline = self.baseline()
            assert baseline is not None
            payload["rib"] = {
                "lines": self._rib_reader.lines,
                "records": self._rib_reader.records,
                "malformed": self._rib_reader.malformed,
                "entries": baseline.entries,
                "duplicates": baseline.duplicates,
                "misplaced": baseline.misplaced,
                "peers": len(baseline.peers),
                "prefixes": len(baseline.origins),
                "announce_wave": len(baseline.announces),
            }
        if self._update_reader is not None:
            updates: dict[str, object] = {
                "lines": self._update_reader.lines,
                "records": self._update_reader.records,
                "malformed": self._update_reader.malformed,
            }
            if self._compiler is not None:
                updates["events"] = self._compiler.events
                updates["out_of_order"] = self._compiler.out_of_order
                updates["misplaced"] = self._compiler.misplaced
            payload["updates"] = updates
        return payload


@dataclass(frozen=True)
class IngestResult:
    """What one ingest run produced, with the pinnable JSON payload."""

    report: ReplayReport
    baseline: RibBaseline | None
    stats: dict[str, object]

    def as_dict(self) -> dict[str, object]:
        return {"ingest": self.stats, "replay": self.report.as_dict()}


def run_ingest(
    lab: HijackLab,
    pipeline: TracePipeline,
    *,
    probes: ProbeSet | None = None,
    batch_window: float = 0.0,
    queue_limit: int = 64,
    metrics: Metrics | None = None,
) -> IngestResult:
    """Stream *pipeline* through a replayer over *lab*'s network.

    With *probes* an online monitor rides along (its detector shares
    the replayer's live ROA table, so a seeded ROA wave changes
    verdicts); without, the run is a pure ledger-convergence sweep.
    """
    replayer = StreamReplayer(
        lab,
        detector=HijackDetector(probes) if probes is not None else None,
        batch_window=batch_window,
        queue_limit=queue_limit,
        metrics=metrics,
    )
    for event in pipeline.events():
        replayer.submit(event)
    report = replayer.finish()
    return IngestResult(
        report=report, baseline=pipeline.baseline(), stats=pipeline.stats()
    )
