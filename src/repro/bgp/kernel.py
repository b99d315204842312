"""The flat-array convergence backend (``backend="array"``).

The reference kernel in
:meth:`repro.bgp.engine.RoutingEngine._propagate_reference` pays
Python-interpreter cost *per message*: it queues one sender node per
export, but every announcement crossing every link is still a loop
step, a few list indexings and integer compares.
At the 1/10-scale synthetic topology that is cheaper than numpy's
per-call overhead; at the paper's real CAIDA snapshot (42,697 ASes,
139,156 links) a single
origin convergence pushes hundreds of thousands of messages and the
interpreter dominates. This module re-states the identical algorithm in
bulk array operations so the per-message cost drops to a few vectorized
numpy instructions. There is one bucket loop: it converges K origins
as K columns of one flat layout, and a single-origin pass is its K=1
column. :func:`converge_columns` is its one entry point: it runs the
loop over a fresh or shared start and hands back :class:`ArrayColumns`.
An in-place pass is the K=1 column over the state it mutates, run
journaled; the engine reads the column's undo journal and writes its
arrays back into that state.

* the compiled :class:`~repro.topology.view.RoutingView` adjacency is
  flattened into CSR form once per engine (:class:`CompiledTopology` —
  int32 ``indptr``/``indices`` per relationship kind);
* the loop keeps one array, the packed ``(class, length)`` key of every
  cell; each install is logged as its cell and sender, and
  ``parent``/``origin_of`` are derived from that log after the loop —
  for a sweep, never: it reads only which cells changed key;
* the bucketed frontier queue holds *array chunks* of ``(cell, sender)``
  candidates instead of per-candidate tuples, and each ``(length,
  class)`` bucket is resolved with one vectorized preference test plus a
  CSR neighbor gather for the winners' exports.

Why it is bit-identical
-----------------------

The reference kernel's observable behaviour per bucket is: candidates are
considered in push order; the *first* candidate for a node wins iff it
strictly beats the node's incumbent at bucket start (a later candidate in
the same bucket carries the same ``(length, class)`` and can never beat
an entry the first one just installed — ties keep the incumbent); winners
export at ``length + 1``, never back into the current bucket. The array
kernel reproduces exactly that, testing first: all candidates of a
bucket carry the same packed key, so whether one beats its incumbent —
the vectorized test mirrors :func:`repro.bgp.policy.prefers`, tier-1
shortest-path exception included — depends on its cell alone, and a
reverse-order index scatter over the winning candidates then selects
each cell's first one in push order: the same winners, in the same
order, as selecting first and testing after. Winner exports are
gathered in install order with each winner's neighbors in adjacency
order — the order in which the reference walks its queued sender nodes.
After the loop, a cell's ``parent`` is the sender of its last logged
install (else its loaded value) and its ``origin_of`` the column's
origin (else its loaded value), which is what the reference's in-loop
writes leave. The undo journal is emitted in the same install order,
each record's pre-install key being the key it displaced and its
pre-install ``parent``/``origin_of`` the previous install of that cell
in its column (else the loaded value), in the same flat
five-ints-per-install layout, so :meth:`ConvergenceDelta.revert
<repro.bgp.engine.ConvergenceDelta.revert>` parity holds too.

The contract — identical :meth:`RouteState.checksum()
<repro.bgp.engine.RouteState.checksum>` on every topology, origin,
blocked set and policy variant, for every column of every batch width —
is enforced by ``tests/property/test_kernel_equivalence.py``,
``tests/property/test_batched_equivalence.py`` and the golden-figure
fixtures; see ``docs/model.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us lazily)
    from repro.bgp.engine import RouteState
    from repro.topology.view import RoutingView

__all__ = [
    "ArrayColumns",
    "compile_view",
    "converge_columns",
    "resolve_backend",
]

# The selectable convergence backends. "reference" is the pure-Python
# bucket-queue kernel in repro.bgp.engine; "array" is this module.
BACKENDS = ("reference", "array")

_CLASS_ORIGIN = 0  # RouteClass.ORIGIN
_CLASS_CUSTOMER = 1  # RouteClass.CUSTOMER
_CLASS_PEER = 2  # RouteClass.PEER
_CLASS_PROVIDER = 3  # RouteClass.PROVIDER
_NO_CLASS = 9  # engine._NO_CLASS
_UNREACHABLE = 1 << 30  # engine.UNREACHABLE

# The hot loop packs (class, length) into one int64 — class in the high
# bits, length below — so the lexicographic Gao–Rexford preference
# (better class first, then shorter path) becomes a single integer
# comparison and route state needs one gather/scatter instead of two.
# Lengths are bounded by _UNREACHABLE < 2**31, so 31 bits suffice.
_LEN_BITS = 31
_LEN_MASK = (1 << _LEN_BITS) - 1
_EMPTY_KEY = (_NO_CLASS << _LEN_BITS) | _UNREACHABLE
# Every packed key below this one holds a route: an empty cell's class
# is _NO_CLASS, the worst.
_NO_ROUTE_KEY = _NO_CLASS << _LEN_BITS


def resolve_backend(backend: str) -> str:
    """Validate a ``backend=`` knob value; returns it unchanged."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown convergence backend {backend!r}; choices: {BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class CompiledTopology:
    """CSR-flattened adjacency of one :class:`RoutingView`.

    ``<kind>_indptr[i] : <kind>_indptr[i+1]`` slices ``<kind>_indices``
    to node *i*'s neighbors of that kind, in the view's (sorted)
    adjacency order — the order the reference kernel iterates, which the
    within-bucket tie-breaking depends on. ``is_tier1`` mirrors the
    view's flag as a bool array for vectorized preference tests.
    """

    size: int
    customer_indptr: np.ndarray
    customer_indices: np.ndarray
    peer_indptr: np.ndarray
    peer_indices: np.ndarray
    provider_indptr: np.ndarray
    provider_indices: np.ndarray
    # The fused export adjacency: per node, providers then peers then
    # customers (each sub-list in adjacency order), with a parallel class
    # code per target (0 = route arrives as CUSTOMER at a provider,
    # 1 = PEER at a peer, 2 = PROVIDER at a customer). A full valley-free
    # export — the hot case, everything an own/customer route fans out to
    # — is then ONE range gather instead of three.
    export_indptr: np.ndarray
    export_indices: np.ndarray
    export_kinds: np.ndarray
    is_tier1: np.ndarray


def _csr(
    adjacency: tuple[tuple[int, ...], ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, counts)`` of one adjacency kind."""
    counts = np.fromiter(map(len, adjacency), dtype=np.int64, count=len(adjacency))
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.int32, count=int(indptr[-1])
    )
    return indptr, indices, counts


def compile_view(view: "RoutingView") -> CompiledTopology:
    """The CSR form of *view*."""
    customer_indptr, customer_indices, customer_counts = _csr(view.customers)
    peer_indptr, peer_indices, peer_counts = _csr(view.peers)
    provider_indptr, provider_indices, provider_counts = _csr(view.providers)
    # Per node: its providers, then peers, then customers, and one kind
    # code per target (the three run lengths, node by node, in ``runs``).
    export_indptr = provider_indptr + peer_indptr + customer_indptr
    export_indices = np.fromiter(
        chain.from_iterable(
            chain.from_iterable(zip(view.providers, view.peers, view.customers))
        ),
        dtype=np.int32,
        count=int(export_indptr[-1]),
    )
    runs = np.column_stack((provider_counts, peer_counts, customer_counts)).ravel()
    export_kinds = np.repeat(np.tile(np.arange(3, dtype=np.int8), len(view)), runs)
    return CompiledTopology(
        size=len(view),
        customer_indptr=customer_indptr,
        customer_indices=customer_indices,
        peer_indptr=peer_indptr,
        peer_indices=peer_indices,
        provider_indptr=provider_indptr,
        provider_indices=provider_indices,
        export_indptr=export_indptr,
        export_indices=export_indices,
        export_kinds=export_kinds,
        is_tier1=np.asarray(view.is_tier1, dtype=bool),
    )


_EMPTY64 = np.empty(0, dtype=np.int64)


def gather_flat(
    indptr: np.ndarray, cells: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR slices of the given flat cells (``col*size + node``),
    concatenated in cell order.

    Returns ``(positions, senders, colbases)``: flat positions into the
    CSR ``indices``, each cell's node id repeated once per neighbor, and
    each cell's column base repeated alike, so the caller rebases the
    gathered targets into their own column.
    """
    colbases = cells // size * size
    nodes = cells - colbases
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    # Most cells are stubs with nothing to gather: drop them first.
    some = np.flatnonzero(counts)
    if some.size == 0:
        return _EMPTY64, _EMPTY64, _EMPTY64
    if some.size < counts.size:
        colbases = colbases[some]
        nodes = nodes[some]
        starts = starts[some]
        counts = counts[some]
    out = int(counts.sum())
    # Standard vectorized multi-range gather: each output cell's flat
    # position is its running output index shifted by its cell's
    # (slice start - output start), repeated once per slice cell.
    ends = np.cumsum(counts)
    shift = np.repeat(starts - (ends - counts), counts)
    positions = np.arange(out, dtype=np.int64) + shift
    return positions, np.repeat(nodes, counts), np.repeat(colbases, counts)


def _packed(state: "RouteState") -> np.ndarray:
    """*state*'s ``(cls, length)`` cells as packed int64 keys."""
    return (np.asarray(state.cls, dtype=np.int64) << _LEN_BITS) | np.asarray(
        state.length, dtype=np.int64
    )


def _converge(
    topology: CompiledTopology,
    key: np.ndarray,
    origins: "list[int]",
    blocked_sets: "list[frozenset[int]]",
    first_hop_flags: "list[bool]",
    tier1_shortest: bool,
    origin_lengths: "list[int]",
    journaled: bool,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], tuple[int, int, int, int]]:
    """The bucket loop: converge K columns of the packed *key* grid in place.

    Each origin is one *column* of the flat ``K*N`` grid (cell
    ``col*N + node``). Columns never read or write each other's cells,
    so the preference test, the first-occurrence pass and the CSR
    export gathers run once per ``(length, class)`` bucket over every
    column's candidates concatenated. The loop keeps only ``key`` up to
    date; every install is logged as its flat cell and its sender node,
    and the caller derives ``parent``/``origin_of`` from that log.

    Returns ``(cells, senders, displaced, counters)``: the install log
    as per-bucket chunks in install order (the origins' own installs
    left out), the key each install displaced when *journaled* (else no
    chunks), and the aggregate ``(messages, installs, replaced,
    rounds)``.
    """
    n = topology.size
    k = len(origins)
    total = n * k
    # An origin's own cell needs no drop mark: no candidate of its column
    # beats (ORIGIN, origin_length) — a tier-1 origin would need a length
    # below origin_length + 1 — so only blocked cells are ever dropped.
    dropped = None
    if any(blocked_sets):
        dropped = np.zeros(total, dtype=bool)
        for col, blocked_set in enumerate(blocked_sets):
            if blocked_set:
                dropped[[col * n + node for node in blocked_set]] = True
    is_tier1 = np.tile(topology.is_tier1, k) if tier1_shortest else None
    # Written before it is read in every bucket, so never initialized.
    first_slot = np.empty(total, dtype=np.int32)

    for col, origin in enumerate(origins):
        key[col * n + origin] = (_CLASS_ORIGIN << _LEN_BITS) | origin_lengths[col]

    buckets: list[list[list[tuple[np.ndarray, np.ndarray]]] | None] = []

    def push(route_length: int, class_offset: int, cells: np.ndarray, senders: np.ndarray) -> None:
        if cells.size == 0:
            return
        while len(buckets) <= route_length:
            buckets.append(None)
        bucket = buckets[route_length]
        if bucket is None:
            bucket = [[], [], []]
            buckets[route_length] = bucket
        bucket[class_offset].append((cells, senders))

    def push_slices(
        next_length: int, class_offset: int, indptr: np.ndarray,
        indices: np.ndarray, cells: np.ndarray,
    ) -> None:
        positions, senders, colbase = gather_flat(indptr, cells, n)
        push(next_length, class_offset, colbase + indices[positions], senders)

    def push_exports(cells: np.ndarray, route_class: int, next_length: int) -> None:
        if route_class in (_CLASS_ORIGIN, _CLASS_CUSTOMER):
            positions, senders, colbase = gather_flat(topology.export_indptr, cells, n)
            if positions.size == 0:
                return
            targets = colbase + topology.export_indices[positions]
            kinds = topology.export_kinds[positions]
            for class_offset in (0, 1, 2):
                mask = kinds == class_offset
                push(next_length, class_offset, targets[mask], senders[mask])
        else:
            push_slices(
                next_length, 2, topology.customer_indptr, topology.customer_indices, cells
            )

    for col, origin in enumerate(origins):
        origin_cell = np.array([col * n + origin], dtype=np.int64)
        # Claimed-path padding: first receivers install one hop past the
        # announced path length, exactly as in the reference kernel.
        first_hop_length = origin_lengths[col] + 1
        origin_is_stub = (
            topology.customer_indptr[origin + 1] == topology.customer_indptr[origin]
        )
        if first_hop_flags[col] and origin_is_stub:
            # The stub filter: providers drop the origin's own
            # announcement, so only peers and customers hear it.
            push_slices(
                first_hop_length, 1, topology.peer_indptr, topology.peer_indices,
                origin_cell,
            )
            push_slices(
                first_hop_length, 2, topology.customer_indptr,
                topology.customer_indices, origin_cell,
            )
        else:
            push_exports(origin_cell, _CLASS_ORIGIN, first_hop_length)

    log_cells: list[np.ndarray] = []
    log_senders: list[np.ndarray] = []
    log_displaced: list[np.ndarray] = []

    messages = 0
    installs = 0
    replaced = 0
    route_length = 0
    while route_length < len(buckets):
        bucket = buckets[route_length]
        if bucket is not None:
            for class_offset, route_class in enumerate(
                (_CLASS_CUSTOMER, _CLASS_PEER, _CLASS_PROVIDER)
            ):
                chunks = bucket[class_offset]
                if not chunks:
                    continue
                if len(chunks) == 1:
                    cells, senders = chunks[0]
                else:
                    cells = np.concatenate([chunk[0] for chunk in chunks])
                    senders = np.concatenate([chunk[1] for chunk in chunks])
                messages += int(cells.size)
                if dropped is not None:
                    keep = np.flatnonzero(~dropped[cells])
                    if keep.size < cells.size:
                        cells = cells[keep]
                        senders = senders[keep]
                # Every candidate of the bucket carries the same packed
                # key, so whether it beats the incumbent is a property of
                # its cell: test first, then pick each winning cell's
                # first candidate in push order.
                incumbent_key = key[cells]
                cand_key = (route_class << _LEN_BITS) | route_length
                beats = cand_key < incumbent_key
                if is_tier1 is not None:
                    # The tier-1 rule: a tier-1 cell takes any strictly
                    # shorter route, whatever its class.
                    tier1 = np.flatnonzero(is_tier1[cells])
                    if tier1.size:
                        beats[tier1] = route_length < (
                            incumbent_key[tier1] & _LEN_MASK
                        )
                won = np.flatnonzero(beats)
                if won.size == 0:
                    continue
                if won.size < cells.size:
                    cells = cells[won]
                    senders = senders[won]
                    incumbent_key = incumbent_key[won]
                slots = np.arange(cells.size, dtype=np.int32)
                first_slot[cells[::-1]] = slots[::-1]
                first = np.flatnonzero(first_slot[cells] == slots)
                if first.size < cells.size:
                    cells = cells[first]
                    senders = senders[first]
                    incumbent_key = incumbent_key[first]
                installs += int(cells.size)
                replaced += int(np.count_nonzero(incumbent_key < _NO_ROUTE_KEY))
                key[cells] = cand_key
                log_cells.append(cells)
                log_senders.append(senders)
                if journaled:
                    log_displaced.append(incumbent_key)
                push_exports(cells, route_class, route_length + 1)
        route_length += 1

    return log_cells, log_senders, log_displaced, (messages, installs, replaced, len(buckets))


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(chunks) if chunks else _EMPTY64


def _journal_records(
    loaded: "RouteState",
    origin: int,
    nodes: np.ndarray,
    senders: np.ndarray,
    displaced: np.ndarray,
    size: int,
) -> list[int]:
    """One column's undo journal, five flat ints per install.

    The origin's own record comes first, from *loaded*. An install's
    pre-install ``cls``/``length`` is the key it *displaced*; its
    pre-install ``parent``/``origin_of`` is the previous install of the
    same cell in this column (its sender, and *origin*), or else the
    loaded value.
    """
    parent = np.asarray(loaded.parent)
    origin_of = np.asarray(loaded.origin_of)
    records = [
        origin,
        int(loaded.cls[origin]),
        int(loaded.length[origin]),
        int(parent[origin]),
        int(origin_of[origin]),
    ]
    if nodes.size == 0:
        return records
    old_parent = parent[nodes].astype(np.int64)
    old_origin = origin_of[nodes].astype(np.int64)
    again = np.flatnonzero(np.bincount(nodes, minlength=size)[nodes] > 1)
    if again.size:
        # Entries of cells installed more than once, grouped by cell in
        # install order: each takes its predecessor's sender.
        again = again[np.argsort(nodes[again], kind="stable")]
        repeat = nodes[again[1:]] == nodes[again[:-1]]
        later = again[1:][repeat]
        old_parent[later] = senders[again[:-1][repeat]]
        old_origin[later] = origin
    records += (
        np.stack(
            (
                nodes,
                displaced >> _LEN_BITS,
                displaced & _LEN_MASK,
                old_parent,
                old_origin,
            ),
            axis=1,
        )
        .ravel()
        .tolist()
    )
    return records


class ArrayColumns:
    """The K columns of one fused pass over a shared start, read on demand.

    Holds the final packed ``key`` grid and the pass's install log, not K
    states: :meth:`holders` reads one key row, :meth:`state` builds a
    column's :class:`~repro.bgp.engine.RouteState` only when asked, and
    :meth:`journal` a journaled pass's undo records. *base* is the state
    every column was loaded from (``None``: a fresh pass, every cell
    empty); it is only read.
    """

    def __init__(
        self,
        size: int,
        origins: "list[int]",
        key: np.ndarray,
        log: tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]],
        base: "RouteState | None",
        base_key: np.ndarray | None,
    ) -> None:
        self.size = size
        self.origins = origins
        self._key = key
        self._log = log
        self._base = base
        self._base_key = base_key
        # The log joined on the first state or journal read, which a
        # sweep never makes.
        self._joined: tuple[np.ndarray, ...] | None = None
        # Which origins the base already routes to; found on first need.
        self._base_holds: list[bool] | None = None

    def _row(self, col: int) -> np.ndarray:
        return self._key[col * self.size:(col + 1) * self.size]

    def _installs(self, col: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column *col*'s logged installs, in install order: their nodes,
        their senders and the keys they displaced (empty unless journaled)."""
        if self._joined is None:
            self._joined = tuple(map(_joined, self._log))
        cells, senders, displaced = self._joined
        if len(self.origins) == 1:
            return cells, senders, displaced
        at = np.flatnonzero(cells // self.size == col)
        if displaced.size:
            displaced = displaced[at]
        return cells[at] - col * self.size, senders[at], displaced

    def holders(self, col: int) -> np.ndarray:
        """Sorted nodes routing to column *col*'s origin, the origin left out.

        A cell installs in a pass iff its key changes — every install
        strictly lowers the packed key, or under the tier-1 rule the
        length — and every install of the column carries its origin. So
        the holders are the changed cells plus the loaded cells that
        already routed to the origin.
        """
        origin = self.origins[col]
        row = self._row(col)
        if self._base is None:
            held = row != _EMPTY_KEY
        else:
            held = row != self._base_key
            base_origin_of = np.asarray(self._base.origin_of)
            if self._base_holds is None:
                self._base_holds = np.isin(self.origins, base_origin_of).tolist()
            if self._base_holds[col]:
                held |= base_origin_of == origin
        held[origin] = False
        return np.flatnonzero(held)

    def state(self, col: int) -> "RouteState":
        """Column *col*'s converged state: int8 ``cls``, int32 the rest.

        ``parent``/``origin_of`` start as copies of the loaded ones and
        take the logged installs in install order, so the last install of
        a cell names its parent, and every installed cell routes to the
        column's origin. A class fits a byte and a length (at most
        ``_UNREACHABLE``) 31 bits, so a state takes 13 bytes per node.
        """
        from repro.bgp.engine import RouteState

        nodes, senders, _ = self._installs(col)
        if self._base is None:
            parent = np.full(self.size, -1, dtype=np.int32)
            origin_of = np.full(self.size, -1, dtype=np.int32)
        else:
            parent = np.array(self._base.parent, dtype=np.int32)
            origin_of = np.array(self._base.origin_of, dtype=np.int32)
        origin = self.origins[col]
        parent[nodes] = senders
        parent[origin] = -1
        origin_of[nodes] = origin
        origin_of[origin] = origin
        row = self._row(col)
        return RouteState(
            origin,
            (row >> _LEN_BITS).astype(np.int8),
            (row & _LEN_MASK).astype(np.int32),
            parent,
            origin_of,
        )

    def journal(self, col: int) -> list[int]:
        """Column *col*'s undo journal against *base*, five flat ints per
        install in install order, entry for entry as the reference kernel
        journals the same pass. Only a journaled pass over a base has one."""
        nodes, senders, displaced = self._installs(col)
        return _journal_records(
            self._base, self.origins[col], nodes, senders, displaced, self.size
        )


def converge_columns(
    topology: CompiledTopology,
    origins: "list[int]",
    blocked_sets: "list[frozenset[int]]",
    first_hop_flags: "list[bool]",
    tier1_shortest: bool,
    origin_lengths: "list[int]",
    base: "RouteState | None" = None,
    journaled: bool = False,
) -> tuple[ArrayColumns, tuple[int, int, int, int]]:
    """Converge K announcements over one shared start, as K columns.

    Without *base* every column starts empty (the fresh shape); with it
    every column starts from *base* (the hijack-sweep shape: K attackers
    stacked on one legitimate baseline), which is only read — only its
    packed key is tiled. A *journaled* pass also logs the key each
    install displaced, so :meth:`ArrayColumns.journal` can undo a column
    against *base*: the in-place shape, K=1 over the state the caller
    then overwrites. Returns the columns and the aggregate ``(messages,
    installs, replaced, rounds)``.
    """
    n = topology.size
    k = len(origins)
    if base is None:
        base_key = None
        key = np.full(n * k, _EMPTY_KEY, dtype=np.int64)
    else:
        base_key = _packed(base)
        key = np.tile(base_key, k)
    cells, senders, displaced, counters = _converge(
        topology, key, origins, blocked_sets, first_hop_flags, tier1_shortest,
        origin_lengths, journaled,
    )
    return ArrayColumns(n, origins, key, (cells, senders, displaced), base, base_key), counters
