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
engine walks candidate routes through a bucket queue in that order (one
sender node per export, its route class naming the neighbours it
announces to) and applies the same
strict-preference install rule (:func:`repro.bgp.policy.prefers`,
inlined), so per node the install sequence — and hence the final RIB —
matches the flood's. The equivalence is enforced by randomized
property tests in ``tests/integration/test_engine_equivalence.py``.

Hijacks reuse the same procedure: converge the legitimate origin from a
clean state, then run the attacker's announcement *on top of* that state —
the bogus route only displaces entries it strictly beats, ties keeping the
incumbent, exactly the paper's announce-only RIB model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, MutableSequence, Sequence

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


@dataclass
class RouteState:
    """Per-node routing outcome for one prefix.

    Arrays are indexed by routing-node index. ``cls`` holds
    :class:`RouteClass` integer values (``_NO_CLASS`` when the node has no
    route), ``length`` AS-path lengths (``UNREACHABLE`` when none),
    ``parent`` the next-hop node (−1 for none/origin) and ``origin_of`` the
    origin node of the installed route (−1 when none). After a hijack pass
    the state mixes entries for the legitimate and the bogus origin.

    A state that will be shared — cached as a clean baseline and reused
    across many hijack passes, possibly from several worker processes —
    should be :meth:`frozen <freeze>` first, so any accidental in-place
    write raises immediately instead of silently contaminating every
    later attack computed on top of it. A hijack pass never needs to
    write into its baseline: :meth:`RoutingEngine.converge` always works
    on a :meth:`copy_for` copy of ``base``.

    The representation follows the kernel that produced the state: the
    reference kernel works on Python lists (frozen: tuples), the array
    kernel writes back numpy arrays (frozen: read-only) so a sweep never
    converts between the two. This class is the only place that knows;
    :meth:`checksum` is identical for identical content either way, and
    the scalar queries below return plain Python values for both.
    """

    origin: int
    cls: MutableSequence[int] | Sequence[int]
    length: MutableSequence[int] | Sequence[int]
    parent: MutableSequence[int] | Sequence[int]
    origin_of: MutableSequence[int] | Sequence[int]

    @classmethod
    def empty(cls, size: int, origin: int) -> "RouteState":
        return cls(
            origin=origin,
            cls=[_NO_CLASS] * size,
            length=[UNREACHABLE] * size,
            parent=[-1] * size,
            origin_of=[-1] * size,
        )

    def _arrays(self) -> tuple:
        return self.cls, self.length, self.parent, self.origin_of

    @property
    def _list_backed(self) -> bool:
        return isinstance(self.cls, (list, tuple))

    def copy_for(self, origin: int) -> "RouteState":
        if self._list_backed:
            copies = [list(array) for array in self._arrays()]
        else:
            copies = [array.copy() for array in self._arrays()]
        return RouteState(origin, *copies)

    def freeze(self) -> "RouteState":
        """Make the arrays immutable (idempotent); returns ``self``."""
        if self._list_backed:
            self.cls, self.length, self.parent, self.origin_of = map(
                tuple, self._arrays()
            )
        else:
            for array in self._arrays():
                array.setflags(write=False)
        return self

    @property
    def is_frozen(self) -> bool:
        if self._list_backed:
            return isinstance(self.cls, tuple)
        return not self.cls.flags.writeable

    def checksum(self) -> str:
        """Content digest over every array — detects in-place mutation."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(self.origin).encode())
        for array in self._arrays():
            if not isinstance(array, (list, tuple)):
                array = array.tolist()
            digest.update(b"|")
            digest.update(",".join(map(_DECIMAL.__getitem__, array)).encode())
        return digest.hexdigest()

    # -- queries -------------------------------------------------------------

    def has_route(self, node: int) -> bool:
        return bool(self.cls[node] != _NO_CLASS)

    def holders_of(self, origin: int) -> frozenset[int]:
        """Nodes (excluding *origin* itself) routing to *origin*."""
        if self._list_backed:
            return frozenset(
                node
                for node, holder in enumerate(self.origin_of)
                if holder == origin and node != origin
            )
        holders = set((self.origin_of == origin).nonzero()[0].tolist())
        holders.discard(origin)
        return frozenset(holders)

    def path_from(self, node: int) -> tuple[int, ...]:
        """The next-hop chain from *node* toward its route's origin.

        This is the *forwarding* path through final-state parents. In the
        announce-only model a neighbor may upgrade its route after
        exporting, so this chain's hop count can differ from
        ``length[node]`` (which is the install-time AS-path length, as in
        the message flood); use the flood's recorded routes when the
        exact announced AS path matters.
        """
        path: list[int] = []
        current = node
        seen = set()
        while True:
            parent = int(self.parent[current])
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

        origin = self.origins[col]
        nodes = np.flatnonzero(np.asarray(self._states[col].origin_of) == origin)
        return nodes[nodes != origin]


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
    is the pure-Python bucket queue below; ``"array"`` is the flat-array
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
            state.cls, state.length, state.parent, state.origin_of = columns.state(0)._arrays()
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
        """The pure-Python bucket-queue propagation kernel.

        One bucket per route length, holding per route class the sender
        nodes queued at that length; the class picks the adjacency a
        sender announces over (CUSTOMER routes go up to ``providers``,
        PEER routes across to ``peers``, PROVIDER routes down to
        ``customers``), so one queue entry per export is one plain int.
        Walking each sender's neighbours in order visits candidates in
        exactly the flood's arrival order, and the install rule is
        :func:`repro.bgp.policy.prefers` inlined as integer compares.

        A journaled pass does no counting in the loop: its installs and
        replacements are read off the journal afterwards, and only when
        metrics are enabled.
        """
        view = self.view
        providers = view.providers
        peers = view.peers
        customers = view.customers
        is_tier1 = view.is_tier1
        tier1_shortest = self.policy.tier1_shortest_path
        blocking = bool(blocked_set)
        cls = state.cls
        length = state.length
        parent = state.parent
        origin_of = state.origin_of

        # The origin installs its own route unconditionally.
        if journal is not None:
            journal += (origin, cls[origin], length[origin], parent[origin], origin_of[origin])
        cls[origin] = _CLASS_ORIGIN
        length[origin] = origin_length
        parent[origin] = -1
        origin_of[origin] = origin

        # Initial exports from the origin, one hop past the claimed path;
        # bucket[route_class] lists the senders (index 0 is never used).
        # A sender is queued only when it has someone to announce to.
        bucket: list[list[int]] = [[], [], [], []]
        if providers[origin] and not (filter_first_hop_providers and not customers[origin]):
            bucket[_CLASS_CUSTOMER].append(origin)
        if peers[origin]:
            bucket[_CLASS_PEER].append(origin)
        if customers[origin]:
            bucket[_CLASS_PROVIDER].append(origin)

        installs = 0
        replaced = 0
        route_length = origin_length + 1
        buckets: list[list[list[int]]] = []
        classes = (
            (_CLASS_CUSTOMER, providers),
            (_CLASS_PEER, peers),
            (_CLASS_PROVIDER, customers),
        )
        while any(bucket):
            current, bucket = bucket, [[], [], [], []]
            buckets.append(current)
            _, up, across, down = bucket
            for route_class, receivers_of in classes:
                exported_up = route_class == _CLASS_CUSTOMER
                for sender in current[route_class]:
                    for node in receivers_of[sender]:
                        if blocking and node in blocked_set:
                            continue
                        # An empty cell is (_NO_CLASS, UNREACHABLE), which
                        # every candidate beats on both branches; the
                        # origin's (ORIGIN, origin_length) none beats.
                        old_class = cls[node]
                        if tier1_shortest and is_tier1[node]:
                            if route_length >= length[node]:
                                continue
                        elif route_class > old_class or (
                            route_class == old_class and route_length >= length[node]
                        ):
                            continue
                        if journal is None:
                            installs += 1
                            if old_class != _NO_CLASS:
                                replaced += 1
                        else:
                            journal += (
                                node, old_class, length[node], parent[node], origin_of[node]
                            )
                        cls[node] = route_class
                        length[node] = route_length
                        parent[node] = sender
                        origin_of[node] = origin
                        if exported_up:
                            if providers[node]:
                                up.append(node)
                            if peers[node]:
                                across.append(node)
                        if customers[node]:
                            down.append(node)
            route_length += 1
        if self.metrics.enabled:
            # Every neighbour of every queued sender is one announcement
            # crossing one link; summing after the fact keeps the hot loop
            # free of counting. Rounds are the buckets up to the last one
            # filled. A journaled pass's first record is the origin's own
            # install, which is not counted; its later records are.
            messages = sum(
                len(receivers_of[sender])
                for done in buckets
                for route_class, receivers_of in classes
                for sender in done[route_class]
            )
            if journal is not None:
                installs = len(journal) // 5 - 1
                replaced = installs - journal[6::5].count(_NO_CLASS)
            self._emit_convergence_metrics(
                messages, installs, replaced, route_length if buckets else 0
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

    Produced by :meth:`RoutingEngine.converge_delta`. ``journal`` is a
    flat list of Python ints, five per install in install order: the
    node, then its pre-install ``cls``, ``length``, ``parent`` and
    ``origin_of`` (half the memory of one tuple per install). A node can
    appear more than once when an early candidate is later displaced
    within the same pass, which is why :meth:`revert` restores each
    node from its *first* record. ``blocked`` and
    ``first_hop_filtered`` are the pass parameters captured at announce
    time; an exact re-application (after rewinding past this entry) must
    reuse them, not the current defense state. ``origin_length`` is the
    claimed-path padding of the pass (0 for an honest origination).
    """

    origin: int
    prev_origin: int
    blocked: frozenset[int]
    first_hop_filtered: bool
    journal: list[int] = field(repr=False)
    origin_length: int = 0

    @property
    def touched(self) -> int:
        """Install count of the pass (journal records; ≥ 1 for the origin)."""
        return len(self.journal) // 5

    def revert(self, state: RouteState) -> None:
        """Rewind the pass, restoring *state* to its exact prior content.

        A cell's content before the pass is its *first* journal record. A
        list-backed state replays the journal backwards, so that record
        is written last; an ndarray-backed state finds each cell's first
        record with one ``np.unique`` and restores all of them with four
        fancy-index scatters.
        """
        if state.is_frozen:
            raise ValueError("cannot revert into a frozen state")
        if state._list_backed:
            cls = state.cls
            length = state.length
            parent = state.parent
            origin_of = state.origin_of
            values = reversed(self.journal)
            for old_origin, old_parent, old_length, old_cls, node in zip(
                values, values, values, values, values
            ):
                cls[node] = old_cls
                length[node] = old_length
                parent[node] = old_parent
                origin_of[node] = old_origin
        else:
            import numpy as np  # ndarray states exist only once numpy is loaded

            journal = self.journal
            records = np.fromiter(journal, np.int64, len(journal)).reshape(-1, 5)
            nodes, first = np.unique(records[:, 0], return_index=True)
            old = records.take(first, axis=0)
            state.cls[nodes] = old[:, 1]
            state.length[nodes] = old[:, 2]
            state.parent[nodes] = old[:, 3]
            state.origin_of[nodes] = old[:, 4]
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
