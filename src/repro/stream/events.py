"""The typed control-plane event model and its JSONL wire format.

A stream is an ordered sequence of timestamped events — the live feed
shape the paper's detection section reasons about (PHAS-style monitors
consume announce/withdraw updates, not converged snapshots):

* :class:`Announce` / :class:`Withdraw` — an origin AS starts / stops
  announcing a prefix;
* :class:`RoaPublish` / :class:`RoaRevoke` — route-origin data appears
  in / disappears from the registry (the paper's "publish your route
  origins" lever, applied mid-stream);
* :class:`DefenseActivate` — a set of ASes turns on origin validation
  (an incremental-deployment step landing while traffic flows).

Timestamps (``at``) are *virtual* seconds: the replay engine's simulated
clock advances to each event's timestamp, so detection latency can be
reported in virtual time as well as event counts.

The wire format is JSONL — one compact, key-sorted JSON object per line
— chosen so streams diff cleanly, concatenate trivially, and round-trip
bit-for-bit (:func:`write_events` → :func:`read_events` is asserted
identical in the test suite). :func:`compile_scenario` and
:func:`compile_campaign` lower the batch-shaped
:class:`~repro.attacks.scenario.HijackScenario` objects (including
randomized multi-attack campaigns) into event sequences, which is how
every existing experiment workload becomes a stream workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from repro.attacks.scenario import HijackKind, HijackScenario, PathKind
from repro.prefixes.prefix import Prefix, PrefixError
from repro.registry.roa import RouteOriginAuthorization
from repro.util.lines import valid_timestamp

__all__ = [
    "Announce",
    "DefenseActivate",
    "RoaPublish",
    "RoaRevoke",
    "StreamEvent",
    "StreamFormatError",
    "Withdraw",
    "compile_campaign",
    "compile_scenario",
    "event_to_dict",
    "parse_event_line",
    "read_events",
    "write_events",
]


class StreamFormatError(ValueError):
    """A line/object does not encode a valid stream event."""


#: Valid ``Announce.replay`` markers (besides the empty string).
_REPLAY_MODES = ("unmodified", "leak")


@dataclass(frozen=True, order=True)
class Announce:
    """*origin_asn* starts announcing *prefix* at virtual time *at*.

    ``path`` is the claimed AS path attribute the announcement carries
    (claimed origin **last**; empty = the honest single-origin claim) —
    how forged type-1/type-N claims ride the wire. ``replay`` marks a
    claim that can only be resolved against live routing state at apply
    time: ``"unmodified"`` re-announces the announcer's currently
    selected route verbatim (type-U), ``"leak"`` re-exports it with the
    announcer prepended (a route leak). ``path`` and ``replay`` are
    mutually exclusive.
    """

    at: float
    prefix: Prefix
    origin_asn: int
    path: tuple[int, ...] = ()
    replay: str = ""

    def __post_init__(self) -> None:
        if self.path and self.replay:
            raise ValueError("an announce carries either a path or a replay marker")
        if self.replay and self.replay not in _REPLAY_MODES:
            raise ValueError(f"unknown replay mode {self.replay!r}")


@dataclass(frozen=True, order=True)
class Withdraw:
    """*origin_asn* stops announcing *prefix* at virtual time *at*."""

    at: float
    prefix: Prefix
    origin_asn: int


@dataclass(frozen=True, order=True)
class RoaPublish:
    """A ROA for (*prefix*, *origin_asn*) lands in the registry."""

    at: float
    prefix: Prefix
    origin_asn: int
    max_length: int | None = None


@dataclass(frozen=True, order=True)
class RoaRevoke:
    """The matching ROA disappears from the registry."""

    at: float
    prefix: Prefix
    origin_asn: int
    max_length: int | None = None


@dataclass(frozen=True, order=True)
class DefenseActivate:
    """*deployer_asns* switch on origin validation (additive)."""

    at: float
    deployer_asns: tuple[int, ...]


StreamEvent = Union[Announce, Withdraw, RoaPublish, RoaRevoke, DefenseActivate]

_KINDS: dict[str, type] = {
    "announce": Announce,
    "withdraw": Withdraw,
    "roa-publish": RoaPublish,
    "roa-revoke": RoaRevoke,
    "defense-activate": DefenseActivate,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


# -- serialization ---------------------------------------------------------


def event_to_dict(event: StreamEvent) -> dict[str, object]:
    """The JSON-ready form of one event (stable keys, prefix as text)."""
    kind = _KIND_OF.get(type(event))
    if kind is None:
        raise StreamFormatError(f"not a stream event: {event!r}")
    payload: dict[str, object] = {"at": float(event.at), "kind": kind}
    if isinstance(event, DefenseActivate):
        payload["deployers"] = list(event.deployer_asns)
    else:
        payload["prefix"] = str(event.prefix)
        payload["origin"] = event.origin_asn
        if isinstance(event, (RoaPublish, RoaRevoke)) and event.max_length is not None:
            payload["max_length"] = event.max_length
        if isinstance(event, Announce):
            if event.path:
                payload["path"] = list(event.path)
            if event.replay:
                payload["replay"] = event.replay
    return payload


def event_from_dict(payload: object) -> StreamEvent:
    """Parse one decoded JSON object back into a typed event."""
    if not isinstance(payload, dict):
        raise StreamFormatError(f"event must be an object, got {type(payload).__name__}")
    kind = payload.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise StreamFormatError(f"unknown event kind {kind!r}")
    at = payload.get("at")
    if not valid_timestamp(at):
        raise StreamFormatError(f"missing/invalid timestamp {at!r}")
    try:
        if cls is DefenseActivate:
            deployers = payload.get("deployers")
            if not isinstance(deployers, list) or not all(
                isinstance(asn, int) and not isinstance(asn, bool) for asn in deployers
            ):
                raise StreamFormatError(f"invalid deployer list {deployers!r}")
            return DefenseActivate(at=float(at), deployer_asns=tuple(deployers))
        prefix_text = payload.get("prefix")
        origin = payload.get("origin")
        if not isinstance(prefix_text, str):
            raise StreamFormatError(f"missing prefix in {payload!r}")
        if not isinstance(origin, int) or isinstance(origin, bool):
            raise StreamFormatError(f"missing/invalid origin in {payload!r}")
        prefix = Prefix.parse(prefix_text)
        if cls in (RoaPublish, RoaRevoke):
            max_length = payload.get("max_length")
            if max_length is not None and (
                not isinstance(max_length, int) or isinstance(max_length, bool)
            ):
                raise StreamFormatError(f"invalid max_length in {payload!r}")
            # The ROA's own maxLength rule: a bound outside
            # [prefix length, 32] makes the line malformed.
            RouteOriginAuthorization(prefix, origin, max_length)
            return cls(at=float(at), prefix=prefix, origin_asn=origin,
                       max_length=max_length)
        if cls is Announce:
            path = payload.get("path", [])
            if not isinstance(path, list) or not all(
                isinstance(asn, int) and not isinstance(asn, bool) for asn in path
            ):
                raise StreamFormatError(f"invalid path in {payload!r}")
            replay = payload.get("replay", "")
            if not isinstance(replay, str):
                raise StreamFormatError(f"invalid replay marker in {payload!r}")
            return Announce(
                at=float(at), prefix=prefix, origin_asn=origin,
                path=tuple(path), replay=replay,
            )
        return cls(at=float(at), prefix=prefix, origin_asn=origin)
    except (PrefixError, ValueError) as error:
        if isinstance(error, StreamFormatError):
            raise
        raise StreamFormatError(f"malformed event {payload!r}: {error}") from error


def parse_event_line(line: str) -> StreamEvent:
    """Parse one JSONL line (the replay engine isolates failures per line)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise StreamFormatError(f"invalid JSON: {error}") from error
    return event_from_dict(payload)


def write_events(path: str | Path, events: Iterable[StreamEvent]) -> Path:
    """Write events as deterministic JSONL (sorted keys, compact separators).

    Events are written in the order given — the stream order is part of
    the format; writers that want time order must sort first (the
    compilers below already do).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(
                json.dumps(event_to_dict(event), sort_keys=True,
                           separators=(",", ":"))
            )
            handle.write("\n")
    return path


def read_events(path: str | Path) -> list[StreamEvent]:
    """Read a JSONL stream strictly — any malformed line raises.

    The replay engine does **not** use this (it parses line by line and
    counts malformed lines instead of dying); this strict form is for
    tooling that wants the whole stream or an error.
    """
    events: list[StreamEvent] = []
    for number, line in enumerate(_read_lines(path), start=1):
        try:
            events.append(parse_event_line(line))
        except StreamFormatError as error:
            raise StreamFormatError(f"{path}:{number}: {error}") from error
    return events


def _read_lines(path: str | Path) -> Iterator[str]:
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield line


# -- scenario → stream compiler -------------------------------------------


def compile_scenario(
    scenario: HijackScenario,
    *,
    start: float = 0.0,
    spacing: float = 1.0,
    dwell: float | None = None,
    announce_legitimate: bool = True,
) -> list[StreamEvent]:
    """Lower one batch scenario into its ordered event sequence.

    The legitimate origin announces at *start* and the attacker *spacing*
    later — the paper's announce-only ordering (legitimate first, hijack
    second) expressed as a timeline. For a sub-prefix hijack the
    legitimate announce carries the *covering* prefix the target actually
    originates, and the attacker announces the more-specific
    ``scenario.prefix`` — two distinct NLRIs, which is exactly why
    origin-conflict monitors need published ROAs to catch it. With
    *dwell* the attacker withdraws after that long (a hijack flap).

    Taxonomy cells lower naturally: a squat's covering prefix stays
    *dark* (the target never originates the squatted slice, so no
    legitimate announce is emitted for it — only the covering primary
    prefix, which the replay layer needs for nothing and the monitor
    sees as a separate NLRI); forged claims ride the attacker announce's
    ``path``; type-U replays and leaks carry the matching ``replay``
    marker resolved against live state at apply time.
    """
    events: list[StreamEvent] = []
    if announce_legitimate:
        legit_prefix = scenario.prefix
        if (
            scenario.kind in (HijackKind.SUBPREFIX, HijackKind.SQUAT)
            and scenario.prefix.length > 0
        ):
            legit_prefix = scenario.prefix.supernet()
        events.append(
            Announce(at=start, prefix=legit_prefix, origin_asn=scenario.target_asn)
        )
    attack_at = start + spacing
    attacker_path: tuple[int, ...] = ()
    attacker_replay = ""
    if scenario.kind is HijackKind.ROUTE_LEAK:
        attacker_replay = "leak"
    elif scenario.path_kind in (PathKind.TYPE_1, PathKind.TYPE_N):
        attacker_path = scenario.forged_path
    elif (
        scenario.path_kind is PathKind.TYPE_U
        and scenario.kind is not HijackKind.SQUAT
    ):
        attacker_replay = "unmodified"
    events.append(
        Announce(at=attack_at, prefix=scenario.prefix,
                 origin_asn=scenario.attacker_asn,
                 path=attacker_path, replay=attacker_replay)
    )
    if dwell is not None:
        events.append(
            Withdraw(at=attack_at + dwell, prefix=scenario.prefix,
                     origin_asn=scenario.attacker_asn)
        )
    return events


def compile_campaign(
    scenarios: Sequence[HijackScenario],
    *,
    start: float = 0.0,
    stagger: float | None = None,
    dwell: float | None = None,
    publish_roas: bool = False,
) -> list[StreamEvent]:
    """Lower many scenarios into one time-ordered multi-attack stream.

    Each scenario is :func:`compile_scenario` at its default 1 s spacing.
    Scenario *i* starts at ``start + i * stagger`` (default: 1 s), so
    attacks overlap when ``stagger < 1 + dwell`` — the
    sequence-of-attacks workload that stresses deployment conclusions.
    Each prefix's legitimate origin announces only once even when several
    scenarios hit the same target. With ``publish_roas`` every target's
    route-origin data is published at *start* (the paper's prescription),
    which lets the online monitor classify the conflicts as hijacks.

    The result is sorted by ``(at, insertion order)`` — a deterministic
    total order suitable for :func:`write_events`.
    """
    events: list[tuple[float, int, StreamEvent]] = []
    sequence = 0

    def push(event: StreamEvent) -> None:
        nonlocal sequence
        events.append((event.at, sequence, event))
        sequence += 1

    announced: set[tuple[Prefix, int]] = set()
    step = 1.0 if stagger is None else stagger
    for index, scenario in enumerate(scenarios):
        scenario_start = start + index * step
        for event in compile_scenario(
            scenario, start=scenario_start, dwell=dwell, announce_legitimate=True
        ):
            if isinstance(event, Announce) and event.origin_asn == scenario.target_asn:
                key = (event.prefix, event.origin_asn)
                if key in announced:
                    continue
                announced.add(key)
                if publish_roas:
                    push(RoaPublish(at=start, prefix=event.prefix,
                                    origin_asn=event.origin_asn))
            push(event)
    events.sort(key=lambda item: (item[0], item[1]))
    return [event for _at, _seq, event in events]
