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
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.engine import RoutingEngine
from repro.oracle.strategies import announce_withdraw_sequences, example_budget
from repro.stream.incremental import PrefixLedger, full_converge


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
