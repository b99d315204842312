"""The fast stable-outcome routing engine.

The paper's sweeps attack one target from every other AS (42,696 attacks
per vulnerability curve). Running the generation-stepped message flood
(:class:`repro.oracle.reference.ReferenceSimulator`) per attack would
dominate the experiment budget, so this engine computes the *identical*
final state directly.

Why it is identical
-------------------

In the message flood every announcement expands one hop per
generation, so a candidate route of length *L* always arrives in
generation *L*. Each node therefore sees its candidates in increasing
length order (best class first within a generation) and installs a
candidate exactly when it strictly beats the node's current entry. That is
precisely a generalized Dijkstra ordered by ``(length, class)``: this
engine walks candidate routes in that order (per length, three sender
queues: up to providers, across to peers, down to customers) and
applies the same
strict-preference install rule (:func:`repro.bgp.policy.prefers`,
inlined), so per node the install sequence — and hence the final RIB —
matches the flood's. The equivalence is enforced by randomized
property tests in ``tests/integration/test_engine_equivalence.py``.

Hijacks reuse the same procedure: converge the legitimate origin from a
clean state, then run the attacker's announcement *on top of* that state —
the bogus route only displaces entries it strictly beats, ties keeping the
incumbent, exactly the paper's announce-only RIB model.

The reference kernel works on one packed int per node (see
:class:`RouteState`): the candidate's preference key is built once per
sender, a cell rejects it with one integer compare, and an install is
one two-slot journal record and one store, which is also all a rewind
undoes per cell.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Sequence

from repro.bgp.policy import PolicyConfig
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.topology.relationships import RouteClass
from repro.topology.view import RoutingView

if TYPE_CHECKING:  # pragma: no cover - the kernel imports numpy; this module must not
    from numpy import ndarray

    from repro.bgp.kernel import ArrayColumns

__all__ = ["ConvergenceDelta", "RouteState", "RoutingEngine", "UNREACHABLE"]

UNREACHABLE = 1 << 30
_NO_CLASS = 9  # worse than every RouteClass value

_CLASS_ORIGIN = int(RouteClass.ORIGIN)
_CLASS_CUSTOMER = int(RouteClass.CUSTOMER)
_CLASS_PEER = int(RouteClass.PEER)
_CLASS_PROVIDER = int(RouteClass.PROVIDER)

# A list-backed state holds one packed int per node. Its high bits are
# the array kernel's (class, length) preference key — class above a
# 31-bit length, so one integer compare is the Gao–Rexford preference —
# and below it sit the parent and the origin, each stored as node
# index + 1 so that −1 (none) is 0:
#
#   route = (class << 31 | length) << 48 | (parent + 1) << 24 | (origin_of + 1)
_LEN_BITS = 31
_LEN_MASK = (1 << _LEN_BITS) - 1
_NODE_BITS = 24
_NODE_MASK = (1 << _NODE_BITS) - 1
_KEY_SHIFT = 2 * _NODE_BITS
_CLASS_SHIFT = _KEY_SHIFT + _LEN_BITS
# Every low bit set: ``key << _KEY_SHIFT | _LOW_MASK`` is not below any
# route with that key, whatever its parent and origin.
_LOW_MASK = (1 << _KEY_SHIFT) - 1
# The largest node index a packed route can name.
MAX_NODE = _NODE_MASK - 1
_EMPTY_ROUTE = (_NO_CLASS << _LEN_BITS | UNREACHABLE) << _KEY_SHIFT
# Every packed route below this one holds a route: an empty cell's class
# is _NO_CLASS, the worst.
_NO_ROUTE = _NO_CLASS << _CLASS_SHIFT


def _pack(cls: int, length: int, parent: int, origin_of: int) -> int:
    """One packed route of plain or numpy ints; a field the layout
    cannot hold raises."""
    cls, length, parent, origin_of = map(operator.index, (cls, length, parent, origin_of))
    if not (
        0 <= cls <= _NO_CLASS
        and 0 <= length <= UNREACHABLE
        and -1 <= parent <= MAX_NODE
        and -1 <= origin_of <= MAX_NODE
    ):
        raise ValueError(
            f"route (cls={cls}, length={length}, parent={parent}, "
            f"origin_of={origin_of}) does not fit the packed layout"
        )
    return (cls << _LEN_BITS | length) << _KEY_SHIFT | (parent + 1) << _NODE_BITS | (
        origin_of + 1
    )


def _unpack(route: int) -> tuple[int, int, int, int]:
    """``(cls, length, parent, origin_of)`` of one packed route."""
    return (
        route >> _CLASS_SHIFT,
        route >> _KEY_SHIFT & _LEN_MASK,
        (route >> _NODE_BITS & _NODE_MASK) - 1,
        (route & _NODE_MASK) - 1,
    )


class _DecimalText(dict):
    """Int → its decimal text, filled on first use.

    :meth:`RouteState.checksum` formats millions of cells drawn from a
    few thousand distinct values (node indices, path lengths, classes),
    so a lookup beats a ``str`` call per cell. The keys are bounded by
    the largest topology's node count plus the sentinels.
    """

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


_DECIMAL = _DecimalText()
_FIELDS = tuple(map(operator.itemgetter, range(4)))


@dataclass
class RouteState:
    """Per-node routing outcome for one prefix.

    Per routing-node index a state holds four fields: ``cls``, the
    :class:`RouteClass` integer value (``_NO_CLASS`` when the node has no
    route), ``length``, the AS-path length (``UNREACHABLE`` when none),
    ``parent``, the next-hop node (−1 for none/origin), and
    ``origin_of``, the origin node of the installed route (−1 when none).
    After a hijack pass the state mixes entries for the legitimate and
    the bogus origin.

    A state that will be shared — cached as a clean baseline and reused
    across many hijack passes, possibly from several worker processes —
    should be :meth:`frozen <freeze>` first, so any accidental in-place
    write raises immediately instead of silently contaminating every
    later attack computed on top of it. A hijack pass never needs to
    write into its baseline: :meth:`RoutingEngine.converge` always works
    on a :meth:`copy_for` copy of ``base``.

    The representation follows the kernel that produced the state. The
    reference kernel works on ``routes``, one packed Python int per node
    (layout above; frozen: a tuple); the array kernel writes back
    ``arrays``, four numpy arrays in field order (frozen: read-only), so
    a sweep never converts between the two. This class is the only
    place that knows: :meth:`checksum` is identical for identical
    content either way, and the scalar queries below return plain Python
    values for both. The ``cls``/``length``/``parent``/``origin_of``
    properties are bulk reads — a packed state decodes the whole column
    into a tuple per access — so a per-node reader asks :meth:`route`,
    :meth:`origin_at` or :meth:`has_route` instead.
    """

    origin: int
    routes: list[int] | tuple[int, ...] | None = field(default=None, repr=False)
    arrays: "tuple[ndarray, ndarray, ndarray, ndarray] | None" = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if (self.routes is None) == (self.arrays is None):
            raise ValueError("a RouteState holds exactly one of routes or arrays")

    @classmethod
    def empty(cls, size: int, origin: int) -> "RouteState":
        if size > MAX_NODE + 1:
            raise ValueError(f"a packed state holds at most {MAX_NODE + 1} nodes, not {size}")
        return cls(origin, [_EMPTY_ROUTE] * size)

    def _kernel_routes(self) -> list[int]:
        """The mutable packed routes the reference kernel works on; an
        ndarray-backed state is packed first, in place."""
        if self.routes is None:
            self.routes = list(map(_pack, *(array.tolist() for array in self.arrays)))
            self.arrays = None
        return self.routes

    def copy_for(self, origin: int) -> "RouteState":
        if self.routes is not None:
            return RouteState(origin, list(self.routes))
        return RouteState(origin, arrays=tuple(array.copy() for array in self.arrays))

    def freeze(self) -> "RouteState":
        """Make the state immutable (idempotent); returns ``self``."""
        if self.routes is not None:
            self.routes = tuple(self.routes)
        else:
            for array in self.arrays:
                array.setflags(write=False)
        return self

    @property
    def is_frozen(self) -> bool:
        if self.routes is not None:
            return type(self.routes) is tuple
        return not self.arrays[0].flags.writeable

    # -- bulk reads ----------------------------------------------------------

    def _column(self, index: int) -> "tuple[int, ...] | ndarray":
        routes = self.routes
        if routes is None:
            return self.arrays[index]
        if index == 0:
            return tuple([route >> _CLASS_SHIFT for route in routes])
        if index == 1:
            return tuple([route >> _KEY_SHIFT & _LEN_MASK for route in routes])
        if index == 2:
            return tuple([(route >> _NODE_BITS & _NODE_MASK) - 1 for route in routes])
        return tuple([(route & _NODE_MASK) - 1 for route in routes])

    @property
    def cls(self) -> "tuple[int, ...] | ndarray":
        return self._column(0)

    @property
    def length(self) -> "tuple[int, ...] | ndarray":
        return self._column(1)

    @property
    def parent(self) -> "tuple[int, ...] | ndarray":
        return self._column(2)

    @property
    def origin_of(self) -> "tuple[int, ...] | ndarray":
        return self._column(3)

    def checksum(self) -> str:
        """Content digest over every field — detects in-place mutation.

        The digested text is the four fields' decimal columns in field
        order, whatever the representation. A packed state decodes each
        *distinct* route once into its four texts — only transit ASes are
        parents, so a converged state holds a few hundred distinct routes
        per few thousand nodes — and reads each column off those rows.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(self.origin).encode())
        routes = self.routes
        if routes is not None:
            text = _DECIMAL
            fields = {
                route: (
                    text[route >> _CLASS_SHIFT],
                    text[route >> _KEY_SHIFT & _LEN_MASK],
                    text[(route >> _NODE_BITS & _NODE_MASK) - 1],
                    text[(route & _NODE_MASK) - 1],
                )
                for route in set(routes)
            }
            rows = list(map(fields.__getitem__, routes))
            columns = (map(field, rows) for field in _FIELDS)
        else:
            columns = (map(_DECIMAL.__getitem__, array.tolist()) for array in self.arrays)
        for column in columns:
            digest.update(b"|")
            digest.update(",".join(column).encode())
        return digest.hexdigest()

    # -- queries -------------------------------------------------------------

    def route(self, node: int) -> tuple[int, int, int, int]:
        """*node*'s ``(cls, length, parent, origin_of)``."""
        if self.routes is not None:
            return _unpack(self.routes[node])
        return tuple(int(array[node]) for array in self.arrays)  # type: ignore[return-value]

    def origin_at(self, node: int) -> int:
        """The origin node of *node*'s route (−1 when it has none)."""
        if self.routes is not None:
            return (self.routes[node] & _NODE_MASK) - 1
        return int(self.arrays[3][node])

    def routes_at(self, nodes: Sequence[int]) -> tuple[int, ...]:
        """The packed routes of *nodes*, in order, as one tuple: equal
        tuples are equal routes there. A packed state reads its cells
        with one C-level gather; an ndarray-backed one packs them."""
        if self.routes is not None:
            return tuple(map(self.routes.__getitem__, nodes))
        picked = list(nodes)
        return tuple(map(_pack, *(array[picked].tolist() for array in self.arrays)))

    @staticmethod
    def origins_in(routes: Sequence[int]) -> list[int]:
        """The origin node of each packed route in *routes* (−1 where
        there is none), as :meth:`routes_at` gathered them."""
        return [(route & _NODE_MASK) - 1 for route in routes]

    def has_route(self, node: int) -> bool:
        if self.routes is not None:
            return self.routes[node] < _NO_ROUTE
        return bool(self.arrays[0][node] != _NO_CLASS)

    def holders_of(self, origin: int) -> frozenset[int]:
        """Nodes (excluding *origin* itself) routing to *origin*."""
        if self.routes is not None:
            mark = origin + 1
            holders = {
                node
                for node, route in enumerate(self.routes)
                if route & _NODE_MASK == mark
            }
        else:
            holders = set((self.arrays[3] == origin).nonzero()[0].tolist())
        holders.discard(origin)
        return frozenset(holders)

    def path_from(self, node: int) -> tuple[int, ...]:
        """The next-hop chain from *node* toward its route's origin.

        This is the *forwarding* path through final-state parents. In the
        announce-only model a neighbor may upgrade its route after
        exporting, so this chain's hop count can differ from *node*'s
        ``length`` (which is the install-time AS-path length, as in the
        message flood); use the flood's recorded routes when the exact
        announced AS path matters.
        """
        routes = self.routes
        parents = self.arrays[2] if routes is None else None
        path: list[int] = []
        current = node
        seen = set()
        while True:
            if routes is not None:
                parent = (routes[current] >> _NODE_BITS & _NODE_MASK) - 1
            else:
                parent = int(parents[current])
            if parent < 0:
                break
            if parent in seen:  # defensive: corrupted parents
                raise RuntimeError(f"parent cycle at node {parent}")
            seen.add(parent)
            path.append(parent)
            current = parent
        return tuple(path)


class ConvergedBatch(Sequence[RouteState]):
    """The K states of one :meth:`RoutingEngine.converge_batch`, in origin order.

    ``batch[i]`` is origin *i*'s :class:`RouteState`. The reference
    backend hands over its eager states; the array kernel hands over its
    :class:`~repro.bgp.kernel.ArrayColumns` and a state is built when it
    is first read (then kept). :meth:`holders` answers the question a
    sweep asks without building any state.
    """

    def __init__(
        self,
        origins: list[int],
        states: list[RouteState] | None = None,
        *,
        columns: "ArrayColumns | None" = None,
    ) -> None:
        self.origins = origins
        self._states: list[RouteState | None] = (
            states if states is not None else [None] * len(origins)
        )
        self._columns = columns

    def __len__(self) -> int:
        return len(self.origins)

    def __getitem__(self, index: int) -> RouteState:  # type: ignore[override]
        col = range(len(self))[index]  # IndexError past the end, like a list
        state = self._states[col]
        if state is None:
            state = self._states[col] = self._columns.state(col)
        return state

    def holders(self, index: int) -> "ndarray":
        """Sorted nodes whose route is origin *index*'s, the origin left
        out: ``sorted(self[index].holders_of(origin))`` as an int array,
        read off the kernel's key grid on the array backend."""
        col = range(len(self))[index]
        if self._columns is not None:
            return self._columns.holders(col)
        import numpy as np  # an eager state may be list-backed

        holders = self._states[col].holders_of(self.origins[col])
        return np.array(sorted(holders), dtype=np.int64)


class RoutingEngine:
    """Direct computation of converged routing states over a view.

    With ``validate=True`` every convergence is followed by the
    structural invariant suite from :mod:`repro.oracle.invariants`
    (loop-free parents, valley-free final classes, preference stability,
    blocked coherence) — a runtime tripwire for exactly the class of
    wrong-but-plausible outcomes a fast path can produce. The default
    (off) path costs one boolean test per convergence; the hot
    propagation loop is untouched either way.

    ``metrics`` (any :class:`repro.obs.Metrics`) receives per-convergence
    counters — messages propagated, routes installed/replaced,
    convergence rounds. The engine accumulates them in local integers and
    emits once per convergence, so the instrumented path costs a handful
    of dict updates per *convergence*, not per message; the default
    ``NULL_METRICS`` sink reduces that to four no-op calls.

    ``backend`` selects the propagation kernel: ``"reference"`` (default)
    is the pure-Python three-queue kernel below; ``"array"`` is the flat-array
    kernel in :mod:`repro.bgp.kernel`, which produces bit-identical
    :meth:`RouteState.checksum` outcomes at a fraction of the wall-clock
    on large topologies (see ``docs/performance.md``). The contract is
    enforced by ``tests/property/test_kernel_equivalence.py``.
    """

    def __init__(
        self,
        view: RoutingView,
        policy: PolicyConfig | None = None,
        *,
        validate: bool = False,
        metrics: Metrics | None = None,
        backend: str = "reference",
    ) -> None:
        self.view = view
        self.policy = policy or PolicyConfig()
        self.validate = validate
        self.metrics = metrics if metrics is not None else NULL_METRICS
        if backend != "reference":
            # Imported lazily: the reference path must not pay the numpy
            # import, and kernel.py type-checks against this module.
            from repro.bgp.kernel import compile_view, converge_columns, resolve_backend

            self.backend = resolve_backend(backend)
            self._compiled = compile_view(view)
            self._converge_columns = converge_columns
        else:
            self.backend = backend
            self._compiled = None
            self._converge_columns = None
            # The reference kernel's tier-1 table: all False with the
            # tier-1 rule off, so its loops never test the policy. Its
            # down loop tests the table only where a customer can be a
            # tier-1 node.
            tier1_rule = self.policy.tier1_shortest_path
            self._tier1 = view.is_tier1 if tier1_rule else (False,) * len(view)
            self._tier1_down = tier1_rule and view.tier1_has_provider

    # -- public API ------------------------------------------------------------

    def converge(
        self,
        origin: int,
        *,
        base: RouteState | None = None,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
        origin_length: int = 0,
    ) -> RouteState:
        """Propagate an announcement from *origin* to the stable state.

        ``base`` is the pre-existing RIB state the announcement competes
        against (the legitimate state when *origin* is a hijacker); without
        it the network starts clean. ``blocked`` nodes drop the
        announcement entirely (prefix filters / ROV). With
        ``filter_first_hop_providers`` the origin's providers drop its
        direct announcement — the defensive stub filter of Section IV.
        ``origin_length`` pads the announced AS path: a path-forgery
        attack (type-1/type-N) or a route leak claims a path of that many
        hops behind the announcer, so its first receivers install at
        ``origin_length + 1`` and compete on that longer length — the
        honest default 0 is the plain one-hop origination.
        """
        self._check_padding(origin_length)
        blocked_set = frozenset(blocked)
        if self._converge_columns is not None:
            state = self._array_columns(
                [origin], base, [blocked_set], [filter_first_hop_providers],
                [origin_length],
            ).state(0)
        else:
            n = len(self.view)
            state = (
                base.copy_for(origin) if base is not None else RouteState.empty(n, origin)
            )
            self._propagate_reference(
                state, origin, blocked_set, filter_first_hop_providers, None,
                origin_length,
            )
        if self.validate:
            self._check(state, blocked_set, filter_first_hop_providers, origin_length)
        return state

    def _check_padding(self, origin_length: int) -> None:
        """Refuse a claimed-path padding whose routes could reach the
        ``UNREACHABLE`` length, before any state is touched."""
        if not 0 <= origin_length < UNREACHABLE - len(self.view):
            raise ValueError(
                f"claimed-path padding {origin_length} does not fit a route length"
            )

    def _check(
        self,
        state: RouteState,
        blocked: frozenset[int],
        first_hop_filtered: bool,
        origin_length: int,
    ) -> None:
        """The invariant suite over one pass's converged state."""
        # Imported lazily: the oracle package imports this module.
        from repro.oracle.invariants import check_route_state

        check_route_state(
            self.view,
            state,
            policy=self.policy,
            blocked=blocked,
            first_hop_filtered=first_hop_filtered,
            origin_lengths={state.origin: origin_length} if origin_length else None,
        )

    def _batch_params(
        self,
        count: int,
        blocked_sets: Sequence[Collection[int]] | None,
        first_hop_flags: Sequence[bool] | None,
        origin_lengths: Sequence[int] | None,
    ) -> tuple[list[frozenset[int]], list[bool], list[int]]:
        """Normalize per-column batch knobs, defaulting like the scalar API."""
        blocked = (
            [frozenset()] * count
            if blocked_sets is None
            else [frozenset(entry) for entry in blocked_sets]
        )
        first_hop = (
            [False] * count if first_hop_flags is None else list(first_hop_flags)
        )
        lengths = [0] * count if origin_lengths is None else list(origin_lengths)
        if not (len(blocked) == len(first_hop) == len(lengths) == count):
            raise ValueError("batch parameter lists must match the origin count")
        for origin_length in lengths:
            self._check_padding(origin_length)
        return blocked, first_hop, lengths

    def converge_batch(
        self,
        origins: Sequence[int],
        *,
        base: RouteState | None = None,
        blocked_sets: Sequence[Collection[int]] | None = None,
        first_hop_flags: Sequence[bool] | None = None,
        origin_lengths: Sequence[int] | None = None,
    ) -> "ConvergedBatch":
        """Converge K independent announcements in one fused pass.

        The batched analogue of :meth:`converge`: origin *i*'s state,
        ``batch[i]``, is checksum-identical to
        ``converge(origins[i], base=base, blocked=blocked_sets[i], ...)``
        — columns of the batch never interact, the shared ``base`` (the
        hijack-sweep shape: many attackers stacked on one legitimate
        baseline) is only read. Per-column knobs default exactly like
        the scalar API (no blocking, no stub filter, honest origination).
        :meth:`ConvergedBatch.holders` reads who routes to origin *i*
        without building its state.

        On the array backend all K origins share one kernel invocation
        over the engine's compiled CSR, which is where the multi-origin
        speedup comes from, and a state is built only when read. The
        reference backend loops :meth:`converge` per origin.
        """
        origins = list(origins)
        blocked, first_hop, lengths = self._batch_params(
            len(origins), blocked_sets, first_hop_flags, origin_lengths
        )
        if self._converge_columns is None:
            return ConvergedBatch(
                origins,
                [
                    self.converge(
                        origin,
                        base=base,
                        blocked=blocked[index],
                        filter_first_hop_providers=first_hop[index],
                        origin_length=lengths[index],
                    )
                    for index, origin in enumerate(origins)
                ],
            )
        batch = ConvergedBatch(
            origins,
            columns=self._array_columns(origins, base, blocked, first_hop, lengths),
        )
        if self.validate:
            for index, state in enumerate(batch):
                self._check(state, blocked[index], first_hop[index], lengths[index])
        return batch

    def _array_columns(
        self,
        origins: list[int],
        base: RouteState | None,
        blocked: list[frozenset[int]],
        first_hop: list[bool],
        lengths: list[int],
        journaled: bool = False,
    ) -> "ArrayColumns":
        """One array-kernel pass over a fresh or shared start, counted."""
        columns, counters = self._converge_columns(
            self._compiled,
            origins,
            blocked,
            first_hop,
            self.policy.tier1_shortest_path,
            lengths,
            base,
            journaled,
        )
        self._emit_convergence_metrics(*counters)
        return columns

    def converge_delta_batch(
        self,
        states: Sequence[RouteState],
        origins: Sequence[int],
        *,
        blocked_sets: Sequence[Collection[int]] | None = None,
        first_hop_flags: Sequence[bool] | None = None,
        origin_lengths: Sequence[int] | None = None,
    ) -> list["ConvergenceDelta"]:
        """Apply K in-place announcement passes: pass *i* is
        ``converge_delta(states[i], origins[i], ...)``, with its own undo
        journal, so the deltas revert independently in the usual
        newest-first order.

        It refuses before any pass — a state count that is not the
        origin count, a knob list of the wrong length, or a frozen state
        anywhere in *states* — so a refused call leaves every state as it
        was. No sweep uses it: re-announcing an attacker over a reverted
        state is the same work as a cold pass over the baseline, plus the
        journal and the rewind (see docs/performance.md).
        """
        states = list(states)
        origins = list(origins)
        if len(states) != len(origins):
            raise ValueError("converge_delta_batch needs one state per origin")
        blocked, first_hop, lengths = self._batch_params(
            len(origins), blocked_sets, first_hop_flags, origin_lengths
        )
        if any(state.is_frozen for state in states):
            raise ValueError(
                "converge_delta_batch needs mutable states; unfreeze or copy them"
            )
        return [
            self.converge_delta(
                state,
                origin,
                blocked=blocked[index],
                filter_first_hop_providers=first_hop[index],
                origin_length=lengths[index],
            )
            for index, (state, origin) in enumerate(zip(states, origins))
        ]

    def converge_delta(
        self,
        state: RouteState,
        origin: int,
        *,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
        origin_length: int = 0,
    ) -> "ConvergenceDelta":
        """Apply *origin*'s announcement to *state* in place — the
        frontier re-propagation hook behind :mod:`repro.stream`.

        The announcement re-propagates from *origin* only where it
        strictly beats the entries already installed in *state*, so the
        install sequence — and hence the final arrays — is identical to
        ``converge(origin, base=state)``, but without the O(N) base copy.
        Every overwritten cell is recorded in the returned
        :class:`ConvergenceDelta`'s undo journal, so the caller can
        rewind the announcement exactly (:meth:`ConvergenceDelta.revert`)
        — which is what makes event-stream withdrawals cheap.

        *state* must be mutable (not :meth:`~RouteState.frozen
        <RouteState.freeze>`) and is mutated directly; its ``origin``
        field is updated to *origin* (the previous value is kept in the
        delta for the rewind).

        Unlike :meth:`converge`, this path never runs the invariant
        suite itself even with ``validate=True``: a state stacked from
        several announcements with *different* blocked sets cannot be
        described by one pass's parameters. The stream ledger validates
        instead, passing the full announcement ``history`` to
        :func:`repro.oracle.invariants.check_route_state`.
        """
        if state.is_frozen:
            raise ValueError("converge_delta needs a mutable state; unfreeze or copy it")
        self._check_padding(origin_length)
        prev_origin = state.origin
        state.origin = origin
        blocked_set = frozenset(blocked)
        if self._converge_columns is not None:
            # The K=1 journaled column over *state*, written back into it.
            columns = self._array_columns(
                [origin], state, [blocked_set], [filter_first_hop_providers],
                [origin_length], journaled=True,
            )
            journal = columns.journal(0)
            state.routes, state.arrays = None, columns.state(0).arrays
        else:
            journal = []
            self._propagate_reference(
                state, origin, blocked_set, filter_first_hop_providers, journal,
                origin_length,
            )
        return ConvergenceDelta(
            origin=origin,
            prev_origin=prev_origin,
            blocked=blocked_set,
            first_hop_filtered=filter_first_hop_providers,
            journal=journal,
            origin_length=origin_length,
        )

    def _propagate_reference(
        self,
        state: RouteState,
        origin: int,
        blocked_set: frozenset[int],
        filter_first_hop_providers: bool,
        journal: list[int] | None,
        origin_length: int = 0,
    ) -> None:
        """The pure-Python propagation kernel: three sender queues per
        route length, one per export direction.

        ``up`` holds the senders announcing to their ``providers`` (the
        origin and CUSTOMER routes), ``across`` those announcing to their
        ``peers`` (the same routes), ``down`` those announcing to their
        ``customers`` (every route). A provider that installs holds a
        CUSTOMER route and is queued all three ways; a peer or a customer
        that installs holds a PEER or PROVIDER route and is queued down
        only. Walking a length's up, across, then down senders, each
        sender's neighbours in order, visits candidates in exactly the
        flood's arrival order. The install rule is
        :func:`repro.bgp.policy.prefers` inlined as integer compares on
        the packed routes: a sender's route is built once, and an install
        is two journal appends and one store.

        Only the up and across loops test for a tier-1 receiver: a
        customer is a tier-1 node only in a view where some tier-1 node
        has a provider, and there the down senders take the across loop.
        With the tier-1 rule off the tier-1 table is all False. Nothing
        is counted in the loop: a pass always journals (into a scratch
        list when the caller keeps none), and its installs and
        replacements are read off the journal afterwards, only when
        metrics are enabled.
        """
        providers = self.view.providers
        peers = self.view.peers
        customers = self.view.customers
        tier1 = self._tier1
        tier1_down = self._tier1_down
        blocking = bool(blocked_set)
        route = state._kernel_routes()
        if journal is None:
            journal = []
        origin_mark = origin + 1

        # The origin installs its own route unconditionally.
        journal.append(origin)
        journal.append(route[origin])
        route[origin] = origin_length << _KEY_SHIFT | origin_mark

        # Initial exports from the origin, one hop past the claimed path.
        # A sender is queued only when it has someone to announce to.
        up: list[int] = []
        across: list[int] = []
        down: list[int] = []
        if providers[origin] and not (filter_first_hop_providers and not customers[origin]):
            up.append(origin)
        if peers[origin]:
            across.append(origin)
        if customers[origin]:
            down.append(origin)

        route_length = origin_length + 1
        levels: list[tuple[list[int], list[int], list[int]]] = []
        while up or across or down:
            levels.append((up, across, down))
            senders_up, senders_across, senders_down = up, across, down
            up, across, down = [], [], []

            # A candidate's key has every low bit set: a cell rejects it
            # iff its own route is not above that, i.e. its (class,
            # length) is at least as good. An empty cell is (_NO_CLASS,
            # UNREACHABLE), which every candidate beats on both branches;
            # the origin's (ORIGIN, origin_length) none beats.
            key = (_CLASS_CUSTOMER << _LEN_BITS | route_length) << _KEY_SHIFT | _LOW_MASK
            offer = key ^ _LOW_MASK | origin_mark
            for sender in senders_up:
                mine = offer | (sender + 1) << _NODE_BITS
                for node in providers[sender]:
                    if tier1[node]:
                        if route_length >= route[node] >> _KEY_SHIFT & _LEN_MASK:
                            continue
                    elif key >= route[node]:
                        continue
                    if blocking and node in blocked_set:
                        continue
                    journal.append(node)
                    journal.append(route[node])
                    route[node] = mine
                    if providers[node]:
                        up.append(node)
                    if peers[node]:
                        across.append(node)
                    if customers[node]:
                        down.append(node)

            sideways = [(senders_across, peers, _CLASS_PEER)]
            if tier1_down:
                sideways.append((senders_down, customers, _CLASS_PROVIDER))
                senders_down = ()
            for senders, receivers_of, route_class in sideways:
                key = (route_class << _LEN_BITS | route_length) << _KEY_SHIFT | _LOW_MASK
                offer = key ^ _LOW_MASK | origin_mark
                for sender in senders:
                    mine = offer | (sender + 1) << _NODE_BITS
                    for node in receivers_of[sender]:
                        if tier1[node]:
                            if route_length >= route[node] >> _KEY_SHIFT & _LEN_MASK:
                                continue
                        elif key >= route[node]:
                            continue
                        if blocking and node in blocked_set:
                            continue
                        journal.append(node)
                        journal.append(route[node])
                        route[node] = mine
                        if customers[node]:
                            down.append(node)

            key = (_CLASS_PROVIDER << _LEN_BITS | route_length) << _KEY_SHIFT | _LOW_MASK
            offer = key ^ _LOW_MASK | origin_mark
            for sender in senders_down:
                mine = offer | (sender + 1) << _NODE_BITS
                for node in customers[sender]:
                    if key >= route[node]:
                        continue
                    if blocking and node in blocked_set:
                        continue
                    journal.append(node)
                    journal.append(route[node])
                    route[node] = mine
                    if customers[node]:
                        down.append(node)
            route_length += 1
        if self.metrics.enabled:
            # Every neighbour of every queued sender is one announcement
            # crossing one link; summing after the fact keeps the hot loop
            # free of counting. Rounds are the lengths up to the last one
            # with a sender. The journal's first record is the origin's
            # own install, which is not counted; its later records are.
            messages = sum(
                sum(map(len, map(receivers_of.__getitem__, senders)))
                for level in levels
                for senders, receivers_of in zip(level, (providers, peers, customers))
            )
            installs = len(journal) // 2 - 1
            replaced = installs - journal[3::2].count(_EMPTY_ROUTE)
            self._emit_convergence_metrics(
                messages, installs, replaced, route_length if levels else 0
            )

    def _emit_convergence_metrics(
        self, messages: int, installs: int, replaced: int, rounds: int
    ) -> None:
        metrics = self.metrics
        if metrics.enabled:
            metrics.count("engine.convergences")
            metrics.count("engine.messages", messages)
            metrics.count("engine.routes_installed", installs)
            metrics.count("engine.routes_replaced", replaced)
            metrics.count("engine.convergence_rounds", rounds)

    def hijack(
        self,
        target: int,
        attacker: int,
        *,
        legitimate: RouteState | None = None,
        blocked: Collection[int] = (),
        filter_first_hop_providers: bool = False,
    ) -> "HijackResult":
        """Run a full origin-hijack: legitimate convergence, then attack.

        Pass a precomputed ``legitimate`` state (from :meth:`converge` on
        the target) when sweeping many attackers against one target — it is
        attacker-independent and dominates the cost otherwise.
        """
        if target == attacker:
            raise ValueError("attacker and target must differ")
        if legitimate is None:
            legitimate = self.converge(target)
        elif legitimate.origin != target:
            raise ValueError(
                f"legitimate state is for origin {legitimate.origin}, not {target}"
            )
        final = self.converge(
            attacker,
            base=legitimate,
            blocked=blocked,
            filter_first_hop_providers=filter_first_hop_providers,
        )
        return HijackResult(
            target=target,
            attacker=attacker,
            legitimate=legitimate,
            final=final,
        )


@dataclass
class ConvergenceDelta:
    """The reversible record of one in-place announcement pass.

    Produced by :meth:`RoutingEngine.converge_delta`. ``journal`` holds
    every install of the pass in install order, each with the content
    its cell had before, in the representation of the state it undoes:

    * on a list-backed state, a flat ``list[int]`` of two slots per
      install — the node, then its displaced packed route;
    * on an ndarray-backed state, the array kernel's four parallel
      int64 arrays — the nodes, the displaced ``(class, length)`` keys,
      the old parents and the old origins.

    :meth:`records` decodes either into ``(node, cls, length, parent,
    origin_of)`` tuples. A node can appear more than once when an early
    candidate is later displaced within the same pass, which is why
    :meth:`revert` restores each node from its *first* record.
    ``blocked`` and ``first_hop_filtered`` are the pass parameters
    captured at announce time; an exact re-application (after rewinding
    past this entry) must reuse them, not the current defense state.
    ``origin_length`` is the claimed-path padding of the pass (0 for an
    honest origination).
    """

    origin: int
    prev_origin: int
    blocked: frozenset[int]
    first_hop_filtered: bool
    journal: "list[int] | tuple[ndarray, ndarray, ndarray, ndarray]" = field(repr=False)
    origin_length: int = 0

    @property
    def touched(self) -> int:
        """Install count of the pass (journal records; ≥ 1 for the origin)."""
        if isinstance(self.journal, list):
            return len(self.journal) // 2
        return len(self.journal[0])

    def records(self) -> list[tuple[int, int, int, int, int]]:
        """The journal as ``(node, cls, length, parent, origin_of)``
        tuples of plain ints, in install order, on either backend."""
        journal = self.journal
        if isinstance(journal, list):
            return [
                (node, *_unpack(old)) for node, old in zip(journal[::2], journal[1::2])
            ]
        nodes, keys, parents, origins = journal
        return list(
            zip(
                nodes.tolist(),
                (keys >> _LEN_BITS).tolist(),
                (keys & _LEN_MASK).tolist(),
                parents.tolist(),
                origins.tolist(),
            )
        )

    def revert(self, state: RouteState) -> None:
        """Rewind the pass, restoring *state* to its exact prior content.

        A cell's content before the pass is its *first* journal record. A
        list-backed state takes the journal's routes back one store per
        record, walking backwards, so that record is written last; an
        ndarray-backed state finds each cell's first record with one
        ``np.unique`` and restores all of them with four fancy-index
        scatters.
        """
        if state.is_frozen:
            raise ValueError("cannot revert into a frozen state")
        journal = self.journal
        if isinstance(journal, list):
            route = state.routes
            if route is None:
                raise ValueError("a two-slot journal reverts a list-backed state")
            values = reversed(journal)
            for old, node in zip(values, values):
                route[node] = old
        else:
            import numpy as np  # ndarray journals exist only once numpy is loaded

            if state.arrays is None:
                raise ValueError("an array journal reverts an ndarray-backed state")
            nodes, keys, parents, origins = journal
            cells, first = np.unique(nodes, return_index=True)
            key = keys[first]
            cls, length, parent, origin_of = state.arrays
            cls[cells] = key >> _LEN_BITS
            length[cells] = key & _LEN_MASK
            parent[cells] = parents[first]
            origin_of[cells] = origins[first]
        state.origin = self.prev_origin


@dataclass
class HijackResult:
    """Outcome of one origin-hijack computation."""

    target: int
    attacker: int
    legitimate: RouteState
    final: RouteState

    @property
    def polluted_nodes(self) -> frozenset[int]:
        """Routing nodes holding the bogus route (the attacker excluded)."""
        return self.final.holders_of(self.attacker)
