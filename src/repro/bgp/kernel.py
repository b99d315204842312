"""The flat-array convergence backend (``backend="array"``).

The reference kernel in
:meth:`repro.bgp.engine.RoutingEngine._propagate_reference` pays
Python-interpreter cost *per message*: it queues one ``(sender,
receivers)`` group per export, but every announcement crossing every
link is still a loop step, a few list indexings and integer compares.
At the 1/10-scale synthetic topology that is cheaper than numpy's
per-call overhead; at the paper's real CAIDA snapshot (42,697 ASes,
139,156 links) a single
origin convergence pushes hundreds of thousands of messages and the
interpreter dominates. This module re-states the identical algorithm in
bulk array operations so the per-message cost drops to a few vectorized
numpy instructions. There is one array kernel,
:func:`propagate_array_batch`: it converges K origins as K columns of
one flat layout, and a single-origin pass is its K=1 column.

* the compiled :class:`~repro.topology.view.RoutingView` adjacency is
  flattened once per view into CSR form (:class:`CompiledTopology` —
  int32 ``indptr``/``indices`` per relationship kind, memoized by view
  object identity exactly like the convergence cache's view digest);
* per-pass route state lives in preallocated int32/int64 scratch arrays,
  and the :class:`~repro.bgp.engine.RouteState` the kernel writes back
  holds numpy arrays too, so a state coming back in (a hijack pass over
  a cached baseline, a warm-started deployment rung) is loaded without
  a list conversion;
* the bucketed frontier queue holds *array chunks* of ``(node, sender)``
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
kernel reproduces exactly that: a reverse-order index scatter selects
each node's first candidate in push order, the vectorized
preference test mirrors :func:`repro.bgp.policy.prefers` (including the
tier-1 shortest-path exception), and winner exports are gathered in
install order with each winner's neighbors in adjacency order — the same
order in which the reference walks its per-winner sender groups. The
undo journal is emitted in the same install order with the same
pre-install cells, in the same flat five-ints-per-install layout, so
:meth:`ConvergenceDelta.revert
<repro.bgp.engine.ConvergenceDelta.revert>` parity holds too.

The contract — identical :meth:`RouteState.checksum()
<repro.bgp.engine.RouteState.checksum>` on every topology, origin,
blocked set and policy variant, for every column of every batch width —
is enforced by ``tests/property/test_kernel_equivalence.py``,
``tests/property/test_batched_equivalence.py`` and the golden-figure
fixtures; see ``docs/model.md``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us lazily)
    from repro.bgp.engine import RouteState
    from repro.topology.view import RoutingView

__all__ = [
    "compile_view",
    "propagate_array_batch",
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


# Compiled-topology memo keyed by view object id, with a weakref callback
# evicting entries when the view is collected (same idiom as the
# convergence cache's view-digest memo).
_COMPILED: dict[int, tuple["weakref.ref[RoutingView]", CompiledTopology]] = {}


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
    """The CSR form of *view*, built once and memoized per view object."""
    key = id(view)
    entry = _COMPILED.get(key)
    if entry is not None and entry[0]() is view:
        return entry[1]
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
    compiled = CompiledTopology(
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
    _COMPILED[key] = (
        weakref.ref(view, lambda _ref, key=key: _COMPILED.pop(key, None)),
        compiled,
    )
    return compiled


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
    cols, nodes = np.divmod(cells, size)
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    out = int(counts.sum())
    if out == 0:
        return _EMPTY64, _EMPTY64, _EMPTY64
    # Standard vectorized multi-range gather: each output cell's flat
    # position is its running output index shifted by its cell's
    # (slice start - output start), repeated once per slice cell.
    ends = np.cumsum(counts)
    shift = np.repeat(starts - (ends - counts), counts)
    positions = np.arange(out, dtype=np.int64) + shift
    return positions, np.repeat(nodes, counts), np.repeat(cols * size, counts)


def propagate_array_batch(
    topology: CompiledTopology,
    states: "list[RouteState]",
    origins: "list[int]",
    blocked_sets: "list[frozenset[int]]",
    first_hop_flags: "list[bool]",
    tier1_shortest: bool,
    journals: list[list[int]] | None,
    origin_lengths: "list[int]",
    base: "RouteState | None" = None,
    fresh: bool = False,
) -> tuple[int, int, int, int]:
    """Converge K independent announcement passes in one fused sweep.

    The one array kernel: a single-origin pass (:meth:`RoutingEngine.converge
    <repro.bgp.engine.RoutingEngine.converge>`, ``converge_delta``) is
    the K=1 case. Each origin is one *column* of a flat ``K*N`` scratch
    layout (cell ``col*N + node``): columns never read or write each
    other's cells, so the reverse-scatter tie-break, the packed-key
    preference test and the CSR export gathers all run once per
    ``(length, class)`` bucket over every column's candidates
    concatenated, amortizing numpy's per-call overhead over a whole
    sweep's origins.

    Why each column is bit-identical to the reference kernel's pass for
    its origin: within a bucket the flat candidate array keeps
    per-column push order (chunks are appended in the same step order,
    and boolean filtering preserves relative order), the
    first-occurrence scatter operates on flat cells so selection
    restricted to one column picks exactly that column's first
    candidates, and the preference test is per-cell. By induction over
    bucket steps every column installs the same winners in the same
    order as the reference bucket queue — which is also why the
    per-column undo journals (distributed from the global install stream
    by a stable sort on the column index) match entry for entry.

    Loading modes: ``fresh=True`` fills pristine scratch directly
    (*states* may hold placeholder empty lists); ``base`` loads one
    shared base state and tiles it across columns (the hijack-sweep
    shape — K attackers stacked on one legitimate baseline) without K
    Python-list copies; otherwise each of the K *states* is loaded into
    its own column (the warm-start shape behind
    :meth:`RoutingEngine.converge_delta_batch
    <repro.bgp.engine.RoutingEngine.converge_delta_batch>`).

    Replaces every state's arrays (write-back per column) and returns
    the aggregate ``(messages, installs, replaced, rounds)``. A
    :meth:`frozen <repro.bgp.engine.RouteState.freeze>` state raises
    ``ValueError`` before any work: the write-back assigns attributes,
    which a read-only array could not stop. *base* is only read.
    """
    for state in states:
        if state.is_frozen:
            raise ValueError(
                "propagate_array_batch cannot write back into a frozen state; copy it"
            )
    n = topology.size
    k = len(origins)
    total = n * k

    if fresh:
        key = np.full(total, _EMPTY_KEY, dtype=np.int64)
        parent = np.full(total, -1, dtype=np.int32)
        origin_of = np.full(total, -1, dtype=np.int32)
    elif base is not None:
        base_key = (np.asarray(base.cls, dtype=np.int64) << _LEN_BITS) | np.asarray(
            base.length, dtype=np.int64
        )
        key = np.tile(base_key, k)
        parent = np.tile(np.asarray(base.parent, dtype=np.int32), k)
        origin_of = np.tile(np.asarray(base.origin_of, dtype=np.int32), k)
    else:
        key = np.concatenate(
            [
                (np.asarray(state.cls, dtype=np.int64) << _LEN_BITS)
                | np.asarray(state.length, dtype=np.int64)
                for state in states
            ]
        )
        parent = np.concatenate(
            [np.asarray(state.parent, dtype=np.int32) for state in states]
        )
        origin_of = np.concatenate(
            [np.asarray(state.origin_of, dtype=np.int32) for state in states]
        )

    origins_np = np.asarray(origins, dtype=np.int32)
    is_tier1_flat = np.tile(topology.is_tier1, k)
    first_slot = np.full(total, -1, dtype=np.int64)

    dropped = np.zeros(total, dtype=bool)
    for col, (origin, blocked_set) in enumerate(zip(origins, blocked_sets)):
        colbase = col * n
        if blocked_set:
            dropped[[colbase + node for node in blocked_set]] = True
        dropped[colbase + origin] = True

    for col, origin in enumerate(origins):
        cell = col * n + origin
        if journals is not None:
            origin_key = int(key[cell])
            journals[col] += (
                origin,
                origin_key >> _LEN_BITS,
                origin_key & _LEN_MASK,
                int(parent[cell]),
                int(origin_of[cell]),
            )
        key[cell] = (_CLASS_ORIGIN << _LEN_BITS) | origin_lengths[col]
        parent[cell] = -1
        origin_of[cell] = origin

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

    # Journal records accumulate per bucket as the winners' flat cells
    # and pre-install values, and are split into columns after the loop:
    # a stable sort on the column index keeps each column's global
    # install order intact.
    j_cells: list[np.ndarray] = []
    j_keys: list[np.ndarray] = []
    j_parents: list[np.ndarray] = []
    j_origins: list[np.ndarray] = []

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
                keep = ~dropped[cells]
                if not keep.all():
                    cells = cells[keep]
                    senders = senders[keep]
                if cells.size == 0:
                    continue
                slots = np.arange(cells.size, dtype=np.int64)
                first_slot[cells[::-1]] = slots[::-1]
                sel = first_slot[cells] == slots
                first_slot[cells] = -1
                cand_cells = cells[sel]
                cand_senders = senders[sel]
                incumbent_key = key[cand_cells]
                cand_key = (route_class << _LEN_BITS) | route_length
                beats = cand_key < incumbent_key
                if tier1_shortest:
                    beats = np.where(
                        is_tier1_flat[cand_cells],
                        route_length < (incumbent_key & _LEN_MASK),
                        beats,
                    )
                if not beats.any():
                    continue
                winners = cand_cells[beats]
                winner_senders = cand_senders[beats]
                displaced_key = incumbent_key[beats]
                installs += int(winners.size)
                replaced += int(((displaced_key >> _LEN_BITS) != _NO_CLASS).sum())
                if journals is not None:
                    j_cells.append(winners)
                    j_keys.append(displaced_key)
                    j_parents.append(parent[winners])
                    j_origins.append(origin_of[winners])
                key[winners] = cand_key
                parent[winners] = winner_senders
                origin_of[winners] = origins_np[winners // n]
                push_exports(winners, route_class, route_length + 1)
        route_length += 1

    if journals is not None and j_cells:
        cols, nodes = np.divmod(np.concatenate(j_cells), n)
        order = np.argsort(cols, kind="stable")
        keys = np.concatenate(j_keys)[order]
        # One row of five per install, flattened into the engine's
        # journal layout: node, cls, length, parent, origin_of.
        records = iter(
            np.stack(
                (
                    nodes[order],
                    keys >> _LEN_BITS,
                    keys & _LEN_MASK,
                    np.concatenate(j_parents)[order],
                    np.concatenate(j_origins)[order],
                ),
                axis=1,
            )
            .ravel()
            .tolist()
        )
        # Records are in column order now; hand each column its run.
        counts = np.bincount(cols, minlength=k).tolist()
        for journal, count in zip(journals, counts):
            journal.extend(islice(records, 5 * count))

    key_grid = key.reshape(k, n)
    parent_grid = parent.reshape(k, n)
    origin_grid = origin_of.reshape(k, n)
    # One copy per column: a view would pin the whole K*N grid for as
    # long as any single state lives.
    for col, state in enumerate(states):
        state.cls = key_grid[col] >> _LEN_BITS
        state.length = key_grid[col] & _LEN_MASK
        state.parent = parent_grid[col].copy()
        state.origin_of = origin_grid[col].copy()
    return messages, installs, replaced, len(buckets)
