#!/usr/bin/env python
"""Regenerate the committed golden ingest fixtures.

The golden trace is the ingest layer's end-to-end contract
(``docs/ingestion.md``): a CAIDA-format topology export of the
hand-verifiable mini graph, a strict-clean RIB dump, an update feed
mixing benign churn with an origin hijack, a forged-path (type-1)
hijack and a sub-prefix hijack, and the monitor report the CLI produces
for them — pinned byte-for-byte by ``tests/test_ingest.py``.

Everything here is deterministic (no RNG, no clocks): timestamps are
hand-placed virtual seconds and prefixes come from the lab's addressing
plan for the exported topology. Regenerate in place after an
intentional behavior change with::

    PYTHONPATH=src:. python tests/fixtures/make_golden_traces.py

and re-run ``pytest tests/test_ingest.py`` to confirm the new pin.
"""

from __future__ import annotations

from pathlib import Path

FIXTURES_DIR = Path(__file__).resolve().parent

GOLDEN_TOPOLOGY = "golden_topology.txt"
GOLDEN_RIB = "golden_rib.jsonl"
GOLDEN_UPDATES = "golden_updates.jsonl"
GOLDEN_REPORT = "golden_report.json"


def write_fixtures(directory: Path) -> dict[str, Path]:
    """Write the four golden files into *directory*; returns their paths."""
    from repro.attacks.lab import HijackLab
    from repro.cli import main as cli_main
    from repro.ingest import TraceRecord
    from repro.topology.caida import dumps_caida, load_caida_mmap

    from tests.conftest import build_mini_graph
    from tests.trace_writer import format_record

    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        name: directory / name
        for name in (GOLDEN_TOPOLOGY, GOLDEN_RIB, GOLDEN_UPDATES, GOLDEN_REPORT)
    }

    # Topology: the mini graph, round-tripped through the CAIDA format so
    # the script sees exactly the graph the CLI will memory-map back in.
    paths[GOLDEN_TOPOLOGY].write_text(
        dumps_caida(build_mini_graph()), encoding="ascii"
    )
    graph = load_caida_mmap(paths[GOLDEN_TOPOLOGY])
    lab = HijackLab(graph, seed=2014)
    prefix = {asn: str(lab.plan.primary_prefix(asn)) for asn in (50, 60, 70, 80)}
    # First half of AS 80's block — covered by 80's ROA but longer than
    # its max-length, so the monitor flags the sub-prefix announcement.
    subprefix = str(next(lab.plan.primary_prefix(80).subnets()))

    # RIB dump: one entry per (peer, prefix) as collectors export them —
    # propagation paths peer-first, true origin last. Strict-clean.
    rib = [
        TraceRecord("rib", 0.0, 1, prefix[50], (1, 10, 30, 50)),
        TraceRecord("rib", 0.0, 1, prefix[60], (1, 2, 20, 40, 60)),
        TraceRecord("rib", 0.1, 1, prefix[70], (1, 70)),
        TraceRecord("rib", 0.1, 1, prefix[80], (1, 10, 80)),
        TraceRecord("rib", 0.2, 2, prefix[50], (2, 1, 10, 30, 50)),
        TraceRecord("rib", 0.2, 2, prefix[60], (2, 20, 40, 60)),
        TraceRecord("rib", 0.3, 2, prefix[80], (2, 20, 80)),
    ]
    paths[GOLDEN_RIB].write_text(
        "".join(format_record(record) + "\n" for record in rib),
        encoding="utf-8",
    )

    # Update feed: announce paths are the claim as it left the announcer
    # (announcer first, claimed origin last; single-element = honest).
    updates = [
        # benign re-announce of AS 50's own block (converges to a no-op)
        TraceRecord("announce", 10.0, 1, prefix[50], (50,)),
        # type-0 origin hijack: AS 60 claims AS 50's block outright
        TraceRecord("announce", 20.0, 1, prefix[50], (60,)),
        # type-1 forged path: AS 70 prepends itself to the victim AS 60
        TraceRecord("announce", 30.0, 2, prefix[60], (70, 60)),
        # the origin hijack is withdrawn again
        TraceRecord("withdraw", 40.0, 1, prefix[50], (60,)),
        # sub-prefix hijack: AS 60 claims half of AS 80's block
        TraceRecord("announce", 50.0, 2, subprefix, (60,)),
        # the forged-path announcement is withdrawn by its announcer
        TraceRecord("withdraw", 60.0, 2, prefix[60], (70,)),
    ]
    lines = [format_record(record) for record in updates]
    # Two records ride as TSV so the golden path covers the per-line
    # encoding auto-detection, not just pure JSONL feeds.
    lines[2] = format_record(updates[2], encoding="tsv")
    lines[4] = format_record(updates[4], encoding="tsv")
    paths[GOLDEN_UPDATES].write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )

    # The pinned report is produced by the CLI itself, so the snapshot
    # test's byte-for-byte comparison covers the whole command path.
    exit_code = cli_main([
        "ingest",
        "--topology", str(paths[GOLDEN_TOPOLOGY]),
        "--rib", str(paths[GOLDEN_RIB]),
        "--updates", str(paths[GOLDEN_UPDATES]),
        "--strict",
        "--seed-roas",
        "--report", str(paths[GOLDEN_REPORT]),
    ])
    if exit_code != 0:
        raise RuntimeError(f"golden ingest run failed with exit code {exit_code}")
    return paths


if __name__ == "__main__":
    import sys

    repo_root = FIXTURES_DIR.parent.parent
    for entry in (str(repo_root / "src"), str(repo_root)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    for path in write_fixtures(FIXTURES_DIR).values():
        print(f"wrote {path}")
