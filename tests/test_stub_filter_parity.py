"""The lab and the stream replayer apply the same stub first-hop rule.

Both ask :meth:`Defense.first_hop_filtered
<repro.defense.deployment.Defense.first_hop_filtered>`: under defensive
stub filters a stub's providers drop its direct announcement, unless the
stub was allocated the announced space itself. Each case runs one
scenario through :meth:`HijackLab.run_scenario` and through
:class:`~repro.stream.replay.StreamReplayer` over its compiled events,
and checks both against a state converged with the expected first-hop
flag written out by hand.
"""

from __future__ import annotations

import pytest

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import HijackScenario
from repro.defense.deployment import Defense
from repro.stream.events import compile_scenario
from repro.stream.replay import StreamReplayer

from tests.conftest import build_mini_graph

STUB = 60  # customer of 40 only, no peers


@pytest.fixture(scope="module", params=["reference", "array"])
def lab(request) -> HijackLab:
    return HijackLab(
        build_mini_graph(), seed=0, backend=request.param,
        defense=Defense(stub_filter=True),
    )


def _expected_state(lab: HijackLab, scenario: HijackScenario, *, filtered: bool):
    engine, view = lab.engine, lab.view
    legit = engine.converge(view.node_of(scenario.target_asn))
    return engine.converge(
        view.node_of(scenario.attacker_asn),
        base=legit,
        filter_first_hop_providers=filtered,
    )


def _assert_parity(lab: HijackLab, scenario: HijackScenario, *, filtered: bool):
    expected = _expected_state(lab, scenario, filtered=filtered)
    # The rule decides something here: the other flag converges elsewhere.
    assert expected.checksum() != _expected_state(
        lab, scenario, filtered=not filtered
    ).checksum()

    outcome = lab.run_scenario(scenario)
    attacker_node = lab.view.node_of(scenario.attacker_asn)
    assert set(outcome.polluted_nodes.tolist()) == expected.holders_of(attacker_node)

    report = StreamReplayer(lab).run(compile_scenario(scenario))
    assert report.prefixes[str(scenario.prefix)]["checksum"] == expected.checksum()
    return outcome


def test_stub_origin_hijack_is_first_hop_filtered_on_both_paths(lab):
    scenario = lab.build_scenario(50, STUB)
    outcome = _assert_parity(lab, scenario, filtered=True)
    # Its only provider drops it and it has no peers: the attack dies.
    assert outcome.pollution_count == 0


def test_stub_announcing_its_own_space_is_not_filtered(lab):
    """A stub re-announcing its own allocation (here against AS30's
    competing claim) reaches its provider on both paths."""
    scenario = lab.build_scenario(30, STUB, prefix=lab.target_prefix(STUB))
    outcome = _assert_parity(lab, scenario, filtered=False)
    assert 40 in outcome.polluted_asns
