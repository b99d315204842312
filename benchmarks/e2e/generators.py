"""Seeded, deterministic generators for the four workloads' inputs.

Each ``make_*`` function writes its files under the directory it is given
and returns what the harness needs to size and check the run. The same
seed gives byte-identical files (``run.py`` generates every input set
more than once per run and asserts it). The topologies are the repo's two
standard ones at their default seed; the run's seed picks everything
laid over them (targets, attackers, origins, the update sequence), so
two seeds differ in the work drawn, not in the network it runs on.
The trace and event formats are written by hand from their documentation
rather than through the program's own serializers, so a change to those
cannot silently change the inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from benchmarks.e2e import adapters

# Line kinds of the storm feed (``StormInputs.kinds``).
DUPLICATE, FLAP_WITHDRAW, FLAP_ANNOUNCE, MALFORMED = 0, 1, 2, 3

_MALFORMED_LINES = (
    '{"path":[64512],"peer":64512,"prefix":"10.0.0.0/24","ts":1.0,"type":"annou',
    "1.0\tannounce\t64512\t10.0.0.0/24",
    '{"path":[],"peer":64512,"prefix":"10.0.0.0/24","ts":1.0,"type":"announce"}',
    "1.0\tannounce\t64512\t10.0.0.0/40\t64512",
    "not a record at all",
)


def _rng(seed: int, label: str) -> random.Random:
    # A str seed is hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"bench-e2e:{seed}:{label}")


def files_digest(paths: list[Path]) -> str:
    """One digest over the bytes of *paths*, in order."""
    digest = hashlib.sha256()
    for path in paths:
        with path.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        digest.update(b"\0")
    return digest.hexdigest()


def prefix_of(index: int) -> str:
    """The *index*-th prefix of a generated RIB."""
    return f"10.{index >> 8}.{index & 255}.0/24"


def sample_indices(seed: int, population: int, count: int) -> list[int]:
    """Which *count* of *population* items a check looks at."""
    return sorted(_rng(seed, "check").sample(range(population), min(count, population)))


def _write_rib(path: Path, origins: list[int], peers: list[int]) -> None:
    with path.open("w", encoding="ascii") as handle:
        for index, origin in enumerate(origins):
            peer = peers[index % len(peers)]
            hops = [origin] if peer == origin else [peer, origin]
            record = {
                "path": hops, "peer": peer, "prefix": prefix_of(index),
                "ts": 0.0, "type": "rib",
            }
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


# -- sweep_scale ------------------------------------------------------------


@dataclass
class SweepInputs:
    topology: Path
    # Target sets the cycles rotate through: the targets to sweep, the
    # ladder's target last.
    cycles: list[list[int]]
    files: list[Path] = field(default_factory=list)


def make_sweep(workdir: Path, seed: int, as_count: int, target_depths: tuple[int, ...],
               ladder_depth: int, cycles: int) -> SweepInputs:
    """CAIDA-scale topology file plus *cycles* disjoint sets of sweep targets.

    Every set has the same mix of depths. What a sweep costs depends on
    its target, and a window that swept one handful of targets measured
    mostly which handful the seed drew; a new set every cycle without end
    made the baseline cache, and with it peak memory, grow with however
    many cycles the run's speed allowed. A few sets, revisited, do neither.
    """
    topology = workdir / "topology.txt"
    graph = adapters.write_scale_topology(topology, as_count)
    by_depth: dict[int, list[int]] = {}
    for asn, depth in sorted(adapters.depths_of(graph).items()):
        by_depth.setdefault(depth, []).append(asn)
    rng = _rng(seed, "sweep-targets")
    for pool in by_depth.values():
        rng.shuffle(pool)
    plan = [
        [by_depth[depth].pop() for depth in (*target_depths, ladder_depth)]
        for _ in range(cycles)
    ]
    return SweepInputs(topology, plan, [topology])


# -- trace_replay -----------------------------------------------------------


@dataclass
class ReplayInputs:
    topology: Path
    rib: Path
    updates: Path
    graph: object
    rib_origins: list[int]
    # One ``(prefix index, asn)`` per update; asn < 0 withdraws ``-asn``.
    ops: list[tuple[int, int]]
    files: list[Path] = field(default_factory=list)

    def chains_after(self, updates: int) -> dict[int, list[int]]:
        """Each prefix's active origins, oldest first, after *updates* ops."""
        chains = {index: [origin] for index, origin in enumerate(self.rib_origins)}
        for index, asn in self.ops[:updates]:
            if asn < 0:
                chains[index].remove(-asn)
            else:
                chains[index].append(asn)
        return chains


def make_replay(workdir: Path, seed: int, as_count: int, rib_prefixes: int,
                updates: int) -> ReplayInputs:
    """RIB dump plus a feed in which every update changes an origin set.

    Each update picks a prefix; with two or more origins active it
    withdraws the newest half of the time, otherwise a fresh origin
    announces. All JSONL, timestamps 10 ms apart.
    """
    topology = workdir / "topology.txt"
    graph = adapters.write_default_topology(topology, as_count)
    asns = adapters.asns_of(graph)
    rng = _rng(seed, "replay")
    origins = [rng.choice(asns) for _ in range(rib_prefixes)]
    rib = workdir / "rib.jsonl"
    _write_rib(rib, origins, asns[:4])
    chains = [[origin] for origin in origins]
    ops: list[tuple[int, int]] = []
    feed = workdir / "updates.jsonl"
    with feed.open("w", encoding="ascii") as handle:
        for step in range(updates):
            index = rng.randrange(rib_prefixes)
            chain = chains[index]
            if len(chain) > 1 and rng.random() < 0.5:
                asn, kind = chain.pop(), "withdraw"
                ops.append((index, -asn))
            else:
                asn, kind = rng.choice(asns), "announce"
                while asn in chain:
                    asn = rng.choice(asns)
                chain.append(asn)
                ops.append((index, asn))
            handle.write(
                '{"path":[%d],"peer":%d,"prefix":"%s","ts":%d.%02d,"type":"%s"}\n'
                % (asn, asn, prefix_of(index), 1 + step // 100, step % 100, kind)
            )
    return ReplayInputs(topology, rib, feed, graph, origins, ops, [topology, rib, feed])


# -- trace_storm ------------------------------------------------------------


@dataclass
class StormInputs:
    topology: Path
    rib: Path
    updates: Path
    kinds: bytearray  # one line kind per line of the feed
    files: list[Path] = field(default_factory=list)


def make_storm(workdir: Path, seed: int, as_count: int, rib_prefixes: int, lines: int,
               flap_share: float, malformed: int) -> StormInputs:
    """RIB dump plus a feed that mostly re-announces what is already legal.

    Lines alternate JSONL and TSV. A flap is a withdraw of the legal
    origin followed at once by its re-announce, so every other record is
    a replayer no-op. Timestamps are 1 ms apart: a 50 ms batch window
    holds 50 records, under the replayer's 64-event queue limit.
    """
    topology = workdir / "topology.txt"
    graph = adapters.write_default_topology(topology, as_count)
    asns = adapters.asns_of(graph)
    rng = _rng(seed, "storm")
    origins = [rng.choice(asns) for _ in range(rib_prefixes)]
    rib = workdir / "rib.jsonl"
    _write_rib(rib, origins, asns[:4])
    json_parts = [
        ('{"path":[%d],"peer":%d,"prefix":"%s","ts":' % (asn, asn, prefix_of(index)))
        for index, asn in enumerate(origins)
    ]
    tsv_parts = [
        "\t%d\t%s\t%d\n" % (asn, prefix_of(index), asn)
        for index, asn in enumerate(origins)
    ]
    picks = rng.choices(range(rib_prefixes), k=lines)
    flaps = set(rng.sample(range(lines - 1), int(lines * flap_share / 2)))
    # Malformed lines go where no flap's withdraw or announce is.
    spare = (n for n in rng.sample(range(lines), 2 * malformed + 8)
             if n not in flaps and n - 1 not in flaps)
    broken = set(islice(spare, malformed))
    kinds = bytearray(lines)
    feed = workdir / "updates.trace"
    out: list[str] = []
    pending_announce = -1  # prefix index whose flap still needs its announce
    for number in range(lines):
        stamp = "%d.%03d" % (1 + number // 1000, number % 1000)
        if pending_announce >= 0:
            index, kind, word = pending_announce, FLAP_ANNOUNCE, "announce"
            pending_announce = -1
        elif number in broken:
            kinds[number] = MALFORMED
            out.append(_MALFORMED_LINES[number % len(_MALFORMED_LINES)] + "\n")
            continue
        elif number in flaps:
            index, kind, word = picks[number], FLAP_WITHDRAW, "withdraw"
            pending_announce = index
        else:
            index, kind, word = picks[number], DUPLICATE, "announce"
        kinds[number] = kind
        if number & 1:
            out.append(stamp + "\t" + word + tsv_parts[index])
        else:
            out.append(json_parts[index] + stamp + ',"type":"' + word + '"}\n')
    feed.write_text("".join(out), encoding="ascii")
    return StormInputs(topology, rib, feed, kinds, [topology, rib, feed])


# -- daemon_http ------------------------------------------------------------


@dataclass
class DaemonInputs:
    topology: Path
    lines_path: Path
    lines: list[str]
    # ``(tenant, prefix, origin, auto_mitigate)`` per registration.
    tenants: list[tuple[str, str, int, bool]]
    files: list[Path] = field(default_factory=list)


def make_daemon(workdir: Path, seed: int, as_count: int, tenant_count: int,
                scenarios: int) -> DaemonInputs:
    """Topology, tenant registrations and attack-grid event lines."""
    topology = workdir / "topology.txt"
    graph = adapters.write_default_topology(topology, as_count)
    asns = adapters.asns_of(graph)
    rng = _rng(seed, "daemon")
    shuffled = rng.sample(asns, len(asns))
    tenant_asns, attackers = shuffled[:tenant_count], shuffled[tenant_count:]
    pairs, lines = adapters.attack_grid_lines(graph, seed, tenant_asns, attackers, scenarios)
    tenants = [
        (f"tenant{index:02d}", prefix, origin, index % 8 == 0)
        for index, (prefix, origin) in enumerate(pairs)
    ]
    lines_path = workdir / "events.jsonl"
    lines_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    registrations = workdir / "tenants.json"
    registrations.write_text(json.dumps(tenants), encoding="utf-8")
    return DaemonInputs(
        topology, lines_path, lines, tenants, [topology, lines_path, registrations]
    )
