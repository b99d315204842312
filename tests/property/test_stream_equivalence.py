"""Incremental convergence is checksum-identical to cold recomputation.

The streaming subsystem's core guarantee (``docs/streaming.md``): after
*every* announce/withdraw, the :class:`PrefixLedger`'s live state equals
the chain :func:`full_converge` would compute from scratch over the
surviving announcements — bit-for-bit, via ``RouteState.checksum()``.
The first property checks that after every op of 200+ generated event
sequences; the second runs the same equivalence with the runtime
invariant checker on, so the history-aware invariant suite itself is
exercised on multi-announcement states; the third withdraws whatever
remains in a random order. The first and third run on both backends.

The ledger sequences draw flaps (a withdraw that empties the ledger,
then the same announcement again), which the ledger revives from the
released state instead of re-converging.

The next two pin the duplicate path: the ledger's O(1) membership set
agrees with its slots after any sequence, duplicates and spurious
withdraws included, and the replayer's withdraw-keyed coalescing
cancels exactly what the full per-key scan cancels. The last replays
mixed batches with flaps inside one batch: after every flush each
ledger equals the cold chain and keeps no released state, and the
report equals a per-event replay's.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.oracle.strategies import announce_withdraw_sequences, example_budget
from repro.prefixes.prefix import Prefix
from repro.stream.events import (
    Announce,
    DefenseActivate,
    RoaPublish,
    RoaRevoke,
    Withdraw,
)
from repro.stream.incremental import PrefixLedger, full_converge
from repro.stream.replay import StreamReplayer
from tests.conftest import build_mini_graph


def _apply(ledger: PrefixLedger, op) -> None:
    kind, origin, blocked, first_hop = op
    if kind == "announce":
        assert ledger.announce(origin, blocked=blocked, first_hop_filtered=first_hop)
    else:
        assert ledger.withdraw(origin)


BACKENDS = pytest.mark.parametrize("backend", ["reference", "array"])


@BACKENDS
@settings(max_examples=example_budget(220), deadline=None)
@given(announce_withdraw_sequences())
def test_ledger_matches_full_convergence_after_every_op(backend, case):
    """On ``"array"`` the ledger's first slot takes ``converge``'s fresh
    load while ``full_converge`` starts from a list-backed empty state:
    two load paths that must land on one checksum."""
    view, ops = case
    engine = RoutingEngine(view, backend=backend)
    ledger = PrefixLedger(engine)
    for op in ops:
        _apply(ledger, op)
        reference = full_converge(engine, ledger.entries)
        if reference is None:
            assert ledger.state is None and ledger.checksum() is None
        else:
            assert ledger.checksum() == reference.checksum()


@settings(max_examples=example_budget(40), deadline=None)
@given(announce_withdraw_sequences(max_size=16, max_events=6))
def test_ledger_equivalence_survives_runtime_validation(case):
    """Same equivalence with ``validate=True``: every ledger apply runs the
    history-aware invariant suite and the rewind-checksum tripwire."""
    view, ops = case
    engine = RoutingEngine(view, validate=True)
    ledger = PrefixLedger(engine)
    for op in ops:
        _apply(ledger, op)
    reference = full_converge(engine, ledger.entries)
    if reference is None:
        assert ledger.state is None
    else:
        assert ledger.checksum() == reference.checksum()


@BACKENDS
@settings(max_examples=example_budget(30), deadline=None)
@given(announce_withdraw_sequences(max_size=14, max_events=8), st.data())
def test_withdraw_order_independence(backend, case, data):
    """Withdrawing the remaining origins in any order from any reached
    state lands on the same chain state — interior rewinds replay the
    suffix correctly regardless of which entry is removed, and withdrawing
    the first entry re-bases the survivors on a cold first slot."""
    view, ops = case
    engine = RoutingEngine(view, backend=backend)
    ledger = PrefixLedger(engine)
    for op in ops:
        _apply(ledger, op)
    remaining = list(ledger.active_origins())
    order = data.draw(st.permutations(remaining), label="withdraw_order")
    for origin in order:
        assert ledger.withdraw(origin)
        reference = full_converge(engine, ledger.entries)
        if reference is None:
            assert ledger.state is None
        else:
            assert ledger.checksum() == reference.checksum()
    assert len(ledger) == 0


@settings(max_examples=example_budget(120), deadline=None)
@given(announce_withdraw_sequences(max_size=14, max_events=10), st.data())
def test_is_active_agrees_with_active_origins(case, data):
    """After every op — interior withdraws, slot-0 re-bases and flap
    revives included, with a duplicate announce or spurious withdraw drawn
    in between — the membership set answers exactly what the slots say."""
    view, ops = case
    ledger = PrefixLedger(RoutingEngine(view))
    nodes = range(len(view))
    for op in ops:
        _apply(ledger, op)
        probe = data.draw(st.sampled_from(nodes), label="noop_probe")
        if ledger.is_active(probe):
            assert not ledger.announce(probe)
        else:
            assert not ledger.withdraw(probe)
        active = ledger.active_origins()
        assert [node for node in nodes if ledger.is_active(node)] == sorted(active)


def _reference_coalesce(replayer: StreamReplayer, pending):
    """The full per-key scan the replayer's coalescing must agree with."""
    removed: set[int] = set()
    openers: dict = {}
    active: dict = {}
    for index, event in enumerate(pending):
        if not isinstance(event, (Announce, Withdraw)):
            continue
        key = (event.prefix, event.origin_asn)
        if key not in active:
            ledger = replayer.ledger(event.prefix)
            view = replayer.lab.view
            active[key] = bool(
                ledger is not None
                and view.has_asn(event.origin_asn)
                and ledger.is_active(view.node_of(event.origin_asn))
            )
        if isinstance(event, Announce):
            if not active[key]:
                active[key] = True
                openers.setdefault(key, []).append(index)
            else:
                openers.pop(key, None)
        elif active[key]:
            active[key] = False
            stack = openers.get(key)
            if stack:
                removed.add(stack.pop())
                removed.add(index)
    kept = [event for index, event in enumerate(pending) if index not in removed]
    return kept, len(removed)


_PREFIXES = (Prefix.parse("10.0.0.0/16"), Prefix.parse("10.1.0.0/16"))
_ORIGINS = (50, 60, 70, 999)  # 999 is not in the topology


@lru_cache(maxsize=1)
def _mini_lab() -> HijackLab:
    return HijackLab(build_mini_graph(), seed=1)


_keys = st.tuples(st.sampled_from(_PREFIXES), st.sampled_from(_ORIGINS))
_batch_events = st.one_of(
    _keys.map(lambda key: Announce(at=1.0, prefix=key[0], origin_asn=key[1])),
    _keys.map(lambda key: Withdraw(at=1.0, prefix=key[0], origin_asn=key[1])),
    _keys.map(lambda key: RoaPublish(at=1.0, prefix=key[0], origin_asn=key[1])),
    _keys.map(lambda key: RoaRevoke(at=1.0, prefix=key[0], origin_asn=key[1])),
    st.just(DefenseActivate(at=1.0, deployer_asns=(10,))),
)
# A flap: the withdraw and the re-announce of one key, back to back.
_flaps = _keys.map(
    lambda key: [
        Withdraw(at=1.0, prefix=key[0], origin_asn=key[1]),
        Announce(at=1.0, prefix=key[0], origin_asn=key[1]),
    ]
)
_batches = st.lists(
    st.one_of(_batch_events.map(lambda event: [event]), _flaps), max_size=8
).map(lambda groups: [event for group in groups for event in group])


@settings(max_examples=example_budget(300), deadline=None)
@given(st.lists(_keys, max_size=4, unique=True), _batches)
def test_coalesce_matches_the_full_key_scan(installed, batch):
    """Random mixed batches over pre-installed origins: batches without a
    withdraw, withdraw-before-announce, ROA and defense events sharing a
    withdraw's (prefix, origin), and origins the view does not know."""
    replayer = StreamReplayer(_mini_lab())
    for prefix, origin in installed:
        if origin != 999:
            replayer.submit(Announce(at=0.0, prefix=prefix, origin_asn=origin))
    replayer.flush()
    kept, cancelled = replayer._coalesce(batch)
    assert (kept, cancelled) == _reference_coalesce(replayer, batch)


@settings(max_examples=example_budget(120), deadline=None)
@given(st.lists(_keys, max_size=4, unique=True), st.lists(_batches, max_size=4))
def test_flushes_with_flaps_match_full_convergence(installed, batches):
    """Each drawn batch is one flush. Flaps inside it revive released
    states; every flush still leaves each ledger equal to the cold chain
    over its entries, with nothing released kept, and the final report
    equals the same events replayed one per flush (up to the emptied
    ledgers a cancelled announce→withdraw pair never created)."""
    lab = _mini_lab()
    replayer = StreamReplayer(lab, batch_window=100.0)
    events = [
        Announce(at=0.0, prefix=prefix, origin_asn=origin)
        for prefix, origin in installed
    ]
    for event in events:
        replayer.submit(event)
    for batch in [[]] + batches:
        for event in batch:
            replayer.submit(event)
        replayer.flush()
        for ledger in replayer.ledgers().values():
            assert ledger._released is None
            reference = full_converge(lab.engine, ledger.entries)
            assert ledger.checksum() == (
                reference.checksum() if reference is not None else None
            )
        events += batch
    unbatched = StreamReplayer(lab, queue_limit=1).run(events)

    def announced(report):
        return {p: d for p, d in report.prefixes.items() if d["active_origins"]}

    assert announced(replayer.report()) == announced(unbatched)
