"""Incremental convergence: per-prefix routing state as a delta ledger.

The batch experiments recompute routing from scratch for every attack.
A stream cannot afford that: each announce/withdraw must be applied to
the *already converged* state. :class:`PrefixLedger` does exactly that,
and is guaranteed checksum-identical to the cold batch computation.

Semantics
---------

The canonical ("cold") state for a prefix with active announcements
``a₁ … aₖ`` (in announcement order, each with the blocked set and
first-hop flag captured when it entered the stream) is the chain

    ``converge(a₁) → converge(a₂, base=·) → … → converge(aₖ, base=·)``

— the same announce-only stacking the batch
:meth:`~repro.bgp.engine.RoutingEngine.hijack` uses, which is why a
compiled scenario stream reproduces the batch lab's pollution sets
bit-for-bit. :func:`full_converge` computes that chain directly; it is
the differential reference the property suite compares against and the
"full re-convergence" baseline the stream benchmark beats.

How the ledger stays identical without recomputing
--------------------------------------------------

* **first announce** — a cold :meth:`~repro.bgp.engine.RoutingEngine
  .converge` with no undo journal. That journal could only say "this
  cell was empty" once per reached node, and rewinding it could only
  yield the empty network, which the ledger represents as no state at
  all.
* **later announce** — one :meth:`~repro.bgp.engine.RoutingEngine
  .converge_delta` pass: the announcement re-propagates in place from
  the new origin only where it strictly beats the incumbent entries
  (the affected frontier), recording an undo journal. Identical to
  ``converge(base=state)`` by construction — same kernel, same install
  sequence — minus the O(N) base copy.
* **withdraw of the newest announcement** — rewind its journal. O(cells
  touched), no convergence at all. Withdrawing the last one releases the
  state: the ledger holds no state, but keeps the released slot 0 and
  its arrays aside until :meth:`PrefixLedger.release`.
* **revive** — an announce whose :class:`AnnounceEntry` equals the
  released slot's (origin node, ``origin_asn``, captured blocked set,
  first-hop flag and claimed path) adopts the released state as its
  cold slot 0, with no convergence: by construction that state *is*
  ``converge(entry)``. A flap (withdraw of a prefix's only origin, then
  the same origin again) therefore costs nothing. Any other announce
  converges cold, and discards the released state.
  :class:`~repro.stream.replay.StreamReplayer` calls ``release()`` on
  every touched ledger at the end of each flush, so a released state
  never outlives the batch that released it.
* **withdraw of an interior announcement** — rewind journals down to it,
  drop it, re-apply the survivors in order (with their captured
  parameters). Cost: the suffix after the withdrawn entry, not the
  whole chain. Withdrawing the first announcement drops the state and
  re-bases: the first survivor becomes the new cold first slot.

Why not repair outward from the withdrawn region instead? In the
announce-only model a node may keep a route its neighbor has since
upgraded away from (install-time state, see
:meth:`RouteState.path_from <repro.bgp.engine.RouteState.path_from>`), so
the cold chain's post-withdraw state can contain entries **no current
neighbor still exports** — unreconstructible from the final arrays
alone. A spatial frontier repair is therefore unsound here; the journal
rewind replays history instead of guessing it, which is what makes the
equivalence exact rather than approximate.

With the engine's ``validate=True``, every (re)applied pass runs the
:mod:`repro.oracle.invariants` suite with the ledger's **full
announcement history** (per-origin blocked sets and first-hop flags —
one pass's parameters cannot describe a multi-announcement state, see
:func:`check_route_state <repro.oracle.invariants.check_route_state>`),
and the ledger additionally records a checksum per position and verifies
every rewind against it — a mutation tripwire in the same spirit as the
convergence cache's ``verify`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

from repro.bgp.engine import ConvergenceDelta, RouteState, RoutingEngine
from repro.obs.metrics import NULL_METRICS, Metrics

__all__ = ["AnnounceEntry", "PrefixLedger", "full_converge"]


@dataclass(frozen=True)
class AnnounceEntry:
    """One active announcement: the origin plus its captured pass inputs.

    ``origin`` is a routing-node index; ``origin_asn`` the announcing AS
    as named by the event (one sibling-group node can be announced by
    any member). ``blocked``/``first_hop_filtered`` are frozen at
    announce time — defense changes are not retroactive; they affect
    announcements that propagate after them, exactly as receiver-side
    blocking drops announcements at propagation time (Section V).
    ``path`` is the claimed AS path attribute (claimed origin last;
    ``None`` = the honest single-AS claim) — its length sets the pass's
    claimed-path padding, so a forged deep path competes at its claimed
    length exactly as in the batch lab.
    """

    origin: int
    origin_asn: int
    blocked: frozenset[int] = frozenset()
    first_hop_filtered: bool = False
    path: tuple[int, ...] | None = None

    @property
    def claimed_path(self) -> tuple[int, ...]:
        """The effective claim; defaults to the honest origin-only path."""
        return self.path if self.path else (self.origin_asn,)

    @property
    def origin_length(self) -> int:
        """Claimed-path padding for the convergence pass (0 = honest)."""
        return len(self.claimed_path) - 1


def full_converge(
    engine: RoutingEngine, entries: Sequence[AnnounceEntry]
) -> RouteState | None:
    """The cold reference: chain-converge *entries* from a clean network.

    ``None`` for an empty ledger (no announcements, no routes). This is
    what every :class:`PrefixLedger` state is checksum-equal to; the
    stream benchmark times it once per event to quantify what the
    incremental path saves.

    With ``engine.validate`` the chain itself runs unvalidated (each
    pass's parameters describe only that pass, not the stacked state —
    and ``converge_delta`` never validates by contract) and the
    invariant suite runs once on the final state with the full
    announcement history — the same check the ledger applies.

    The chain runs as in-place :meth:`~repro.bgp.engine.RoutingEngine
    .converge_delta` passes over one mutable state (journals discarded):
    identical final arrays by the delta contract, without the O(N) base
    copy ``converge(base=...)`` would pay per entry. The first pass, too,
    is a ``converge_delta`` on an empty state, where the ledger runs a
    cold ``converge`` instead; that makes this an independent reference
    for the ledger's first slot.
    """
    if not entries:
        return None
    state = RouteState.empty(len(engine.view), entries[0].origin)
    for entry in entries:
        engine.converge_delta(
            state,
            entry.origin,
            blocked=entry.blocked,
            filter_first_hop_providers=entry.first_hop_filtered,
            origin_length=entry.origin_length,
        )
    if engine.validate:
        _validate_chain(engine, state, entries)
    return state


def _validate_chain(
    engine: RoutingEngine, state: RouteState, entries: Sequence[AnnounceEntry]
) -> None:
    """Invariant suite over a chain state, scoped by announcement history."""
    # Imported lazily: repro.oracle imports repro.bgp (same idiom as the
    # engine's own validate path).
    from repro.oracle.invariants import check_route_state

    check_route_state(
        engine.view,
        state,
        policy=engine.policy,
        history=[
            (entry.origin, entry.blocked, entry.first_hop_filtered)
            for entry in entries
        ],
        origin_lengths={
            entry.origin: entry.origin_length
            for entry in entries
            if entry.origin_length
        },
    )


@dataclass
class _LedgerSlot:
    """One applied announcement: entry + its delta (+ validate checksum).

    ``delta`` is ``None`` for slot 0, which is a cold converge with no
    journal: rewinding it can only yield the empty network.
    """

    entry: AnnounceEntry
    delta: ConvergenceDelta | None
    checksum: str | None = field(default=None, repr=False)


class PrefixLedger:
    """The incremental convergence state of one prefix.

    One mutable working :class:`~repro.bgp.engine.RouteState` plus the
    ordered slots of active announcements; with no slots there is no
    state. :meth:`announce` and :meth:`withdraw` keep the working state
    checksum-identical to :func:`full_converge` over :attr:`entries` at
    every step.

    Duplicate announcements of an already-active origin and withdrawals
    of an inactive origin are no-ops returning ``False`` — BGP updates
    with unchanged attributes and spurious withdrawals both collapse to
    nothing in this model; the replay layer counts them.
    """

    def __init__(self, engine: RoutingEngine, *, metrics: Metrics | None = None) -> None:
        self.engine = engine
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._slots: list[_LedgerSlot] = []
        # Origin node -> entry of every slot: a duplicate announce or a
        # spurious withdraw is answered by one lookup, not a slot scan,
        # and the monitor reads announcers and claims off it.
        self._entry_of: dict[int, AnnounceEntry] = {}
        self._state: RouteState | None = None
        # The sole slot and state the last withdraw-to-empty released; an
        # equal announce revives them (see the module docstring).
        self._released: tuple[_LedgerSlot, RouteState] | None = None

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def entries(self) -> tuple[AnnounceEntry, ...]:
        """Active announcements in announcement order."""
        return tuple(slot.entry for slot in self._slots)

    @property
    def state(self) -> RouteState | None:
        """The converged state, or ``None`` with nothing announced.

        The returned object is the ledger's live working buffer — read
        it, don't write it, and don't hold it across further events.
        """
        return self._state

    @property
    def entry_of(self) -> Mapping[int, AnnounceEntry]:
        """Origin node → its active :class:`AnnounceEntry`, in
        announcement order. The live map, not a copy: read it, never
        write it. An entry object stays the same from its announce to its
        withdraw, so ``is`` tells an unchanged announcement from a new
        one."""
        return self._entry_of

    def is_active(self, origin: int) -> bool:
        return origin in self._entry_of

    def active_origins(self) -> tuple[int, ...]:
        return tuple(slot.entry.origin for slot in self._slots)

    def origin_asns(self) -> dict[int, int]:
        """Routing node → announcing ASN for every active announcement."""
        return {slot.entry.origin: slot.entry.origin_asn for slot in self._slots}

    def checksum(self) -> str | None:
        return self._state.checksum() if self._state is not None else None

    # -- events ------------------------------------------------------------

    def announce(
        self,
        origin: int,
        *,
        origin_asn: int | None = None,
        blocked: Collection[int] = (),
        first_hop_filtered: bool = False,
        path: tuple[int, ...] | None = None,
    ) -> bool:
        """Apply one announcement; ``False`` if *origin* is already active."""
        if self.is_active(origin):
            return False
        entry = AnnounceEntry(
            origin=origin,
            origin_asn=origin_asn if origin_asn is not None else origin,
            blocked=frozenset(blocked),
            first_hop_filtered=first_hop_filtered,
            path=tuple(path) if path else None,
        )
        self._apply(entry)
        return True

    def withdraw(self, origin: int) -> bool:
        """Withdraw *origin*'s announcement; ``False`` if not active.

        Newest-first withdrawals are pure journal rewinds; an interior
        withdrawal rewinds the suffix and re-applies the survivors with
        their captured parameters. Rewinding past slot 0 drops the state,
        so the first survivor (if any) becomes a cold slot 0 again.
        Withdrawing the sole announcement keeps its slot and state as the
        released pair an equal announce revives.
        """
        if origin not in self._entry_of:
            return False
        position = next(
            index for index, slot in enumerate(self._slots)
            if slot.entry.origin == origin
        )
        rewound = self._slots[position:]
        del self._slots[position:]
        for slot in rewound:
            del self._entry_of[slot.entry.origin]
        self.metrics.count("stream.ledger.reverts", len(rewound))
        if not self._slots:
            if len(rewound) == 1:
                assert self._state is not None
                self._released = (rewound[0], self._state)
            self._state = None
        else:
            assert self._state is not None
            for slot in reversed(rewound):
                assert slot.delta is not None
                slot.delta.revert(self._state)
                self.metrics.count("stream.ledger.cells_reverted", slot.delta.touched)
            expected = self._slots[-1].checksum
            if expected is not None and self._state.checksum() != expected:
                raise RuntimeError(
                    f"ledger rewind for origin {origin} did not restore the "
                    "prior state (journal corruption)"
                )
        for slot in rewound[1:]:
            self._apply(slot.entry, replayed=True)
        return True

    def release(self) -> None:
        """Drop the state the last withdraw-to-empty kept for a revive."""
        self._released = None

    # -- internals ---------------------------------------------------------

    def _apply(self, entry: AnnounceEntry, *, replayed: bool = False) -> None:
        released, self._released = self._released, None
        if released is not None and released[0].entry == entry:
            slot, self._state = released
            self._slots.append(slot)
            self._entry_of[entry.origin] = slot.entry
            if slot.checksum is not None and self._state.checksum() != slot.checksum:
                raise RuntimeError(
                    f"revived state for origin {entry.origin} changed while "
                    "released (state corruption)"
                )
            self.metrics.count("stream.ledger.revived")
            return
        if self._state is None:
            self._state = self.engine.converge(
                entry.origin,
                blocked=entry.blocked,
                filter_first_hop_providers=entry.first_hop_filtered,
                origin_length=entry.origin_length,
            )
            delta = None
        else:
            delta = self.engine.converge_delta(
                self._state,
                entry.origin,
                blocked=entry.blocked,
                filter_first_hop_providers=entry.first_hop_filtered,
                origin_length=entry.origin_length,
            )
            self.metrics.count("stream.ledger.cells_installed", delta.touched)
        slot = _LedgerSlot(entry=entry, delta=delta)
        self._slots.append(slot)
        self._entry_of[entry.origin] = entry
        if self.engine.validate:
            _validate_chain(self.engine, self._state, self.entries)
            slot.checksum = self._state.checksum()
        self.metrics.count("stream.ledger.convergences")
        if replayed:
            self.metrics.count("stream.ledger.replays")
