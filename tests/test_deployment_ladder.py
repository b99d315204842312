"""A deployment ladder is one cold sweep per rung.

Rung *i* of :meth:`HijackLab.sweep_deployments` must be item-identical
to ``with_defense(Defense(strategy=ladder[i], authority=...))
.sweep_target(...)`` with the same pool, sample and seed: the same
attackers in the same order, and per attacker the same count, address
fraction and polluted ASN set. Both backends, fused widths 1, 3 and the
lab's default, both attacker pools, with and without sampling. The
target has a sibling, so the sweep pool's sibling exclusion is on the
path too.
"""

import pytest

from repro.attacks.lab import HijackLab
from repro.defense.deployment import Defense
from repro.defense.strategies import (
    no_deployment,
    random_deployment,
    tier1_deployment,
    top_degree_deployment,
)
from repro.registry.publication import PublicationState
from repro.topology import GeneratorConfig, generate_topology

TARGET = 164  # shares its routing node with AS175 on this topology


@pytest.fixture(scope="module")
def graph():
    return generate_topology(GeneratorConfig.scaled(300, seed=7))


def _lab(graph, backend, width):
    if width is None:
        return HijackLab(graph, seed=7, backend=backend)
    return HijackLab(graph, seed=7, backend=backend, batch_origins=width)


def _items(outcomes):
    return [
        (
            attacker,
            outcome.pollution_count,
            outcome.address_fraction,
            outcome.polluted_asns,
        )
        for attacker, outcome in outcomes.items()
    ]


@pytest.mark.parametrize("sample", [None, 40])
@pytest.mark.parametrize("transit_only", [True, False])
@pytest.mark.parametrize("width", [1, 3, None])
@pytest.mark.parametrize("backend", ["reference", "array"])
def test_rung_is_the_cold_sweep(graph, backend, width, transit_only, sample):
    lab = _lab(graph, backend, width)
    assert len(lab.view.members[lab.view.node_of(TARGET)]) > 1
    ladder = [
        no_deployment(),
        tier1_deployment(graph),
        top_degree_deployment(graph, 20),
        random_deployment(graph, 30, seed=1),
    ]
    authority = PublicationState.full(lab.plan).table()
    rungs = lab.sweep_deployments(
        TARGET, ladder, authority, transit_only=transit_only, sample=sample, seed=5
    )
    assert len(rungs) == len(ladder)
    for strategy, rung in zip(ladder, rungs):
        cold = lab.with_defense(
            Defense(strategy=strategy, authority=authority)
        ).sweep_target(TARGET, transit_only=transit_only, sample=sample, seed=5)
        assert _items(rung) == _items(cold), strategy.name
    # The ladder is not vacuous: the deployment changes what the attacks do.
    totals = [sum(o.pollution_count for o in rung.values()) for rung in rungs]
    assert totals[0] > totals[2]

