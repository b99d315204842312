"""Prevention asks the detection judge: deployers drop exactly what it indicts.

A deploying AS drops a bogus announcement when
:func:`~repro.detection.taxonomy.classify_observations`, given the
announcement's claimed path and the defense's own published data
(``authority``, ``neighbors``), returns a report — rule 1 (the ROA check)
or rule 2 (the declared-neighbor first-hop check). This pins that
equivalence over every grid cell, on both convergence backends, under
ROV alone and ROV + published neighbor sets, with every owner publishing
and with only some: the deployers that block a claim are all of them
when the judge indicts it and none of them when it does not, and a
blocked deployer never ends up holding the bogus route.
"""

from __future__ import annotations

import pytest

from repro.attacks.lab import HijackLab
from repro.defense.deployment import Defense
from repro.defense.strategies import DeploymentStrategy
from repro.detection.taxonomy import (
    PathObservation,
    classify_observations,
    grid_cells,
)
from repro.registry.neighbors import NeighborRegistry
from repro.registry.publication import PublicationState

from tests.conftest import build_mini_graph

ATTACKER = 60
# 50 publishes under partial publication, 70 and 80 do not.
TARGETS = (50, 70, 80)
DEPLOYERS = frozenset({1, 2, 10, 20, 40})
CELL_IDS = [f"{kind.value}-{path_kind.value}" for kind, path_kind in grid_cells()]


@pytest.fixture(scope="module", params=["reference", "array"])
def lab(request) -> HijackLab:
    return HijackLab(build_mini_graph(), seed=0, validate=True, backend=request.param)


@pytest.fixture(
    scope="module",
    params=[
        ("full", False), ("full", True), ("partial", False), ("partial", True),
    ],
    ids=["rov-full", "rov+neighbors-full", "rov-partial", "rov+neighbors-partial"],
)
def defended(request, lab) -> HijackLab:
    publication, with_neighbors = request.param
    if publication == "full":
        state = PublicationState.full(lab.plan)
    else:
        state = PublicationState.with_participants(
            lab.plan, [asn for asn in lab.plan.all_asns() if asn not in (70, 80)]
        )
    return lab.with_defense(
        Defense(
            strategy=DeploymentStrategy("core", DEPLOYERS),
            authority=state.table(),
            neighbors=(
                NeighborRegistry.from_graph(lab.graph) if with_neighbors else None
            ),
        )
    )


@pytest.mark.parametrize("kind,path_kind", grid_cells(), ids=CELL_IDS)
def test_deployers_block_exactly_what_the_judge_indicts(defended, kind, path_kind):
    defense = defended.defense
    for target in TARGETS:
        scenario = defended.build_scenario(
            target, ATTACKER, kind=kind, path_kind=path_kind, forged_depth=2
        )
        claimed = defended.claimed_path(scenario)
        assert claimed is not None  # every cell launches on the mini graph
        indicted = classify_observations(
            scenario.prefix,
            [PathObservation(tail=claimed)],
            authority=defense.authority,
            neighbors=defense.neighbors,
        ) is not None
        expected = DEPLOYERS if indicted else frozenset()

        blockers = defense.blocking_asns(
            scenario.prefix, scenario.attacker_asn, claimed_path=claimed
        )
        assert blockers == expected, (
            f"AS{target} {kind.value}/{path_kind.value}: judge "
            f"{'indicts' if indicted else 'clears'} {claimed}, "
            f"blocked at {sorted(blockers)}"
        )
        outcome = defended.run_scenario(scenario)
        assert outcome.claimed_path == claimed
        assert outcome.blocked_asns & DEPLOYERS == expected
        if indicted:
            assert not outcome.polluted_asns & DEPLOYERS


def test_the_matrix_exercises_both_verdicts_and_both_rules(lab):
    """The equivalence above is not vacuous: across the configurations
    the judge both indicts and clears, and each of rules 1 and 2 is the
    sole reason for some indictment."""
    authority = PublicationState.full(lab.plan).table()
    neighbors = NeighborRegistry.from_graph(lab.graph)
    by_rule = {"roa": set(), "neighbors": set(), "cleared": set()}
    for kind, path_kind in grid_cells():
        scenario = lab.build_scenario(
            50, ATTACKER, kind=kind, path_kind=path_kind, forged_depth=2
        )
        tail = lab.claimed_path(scenario)
        observation = [PathObservation(tail=tail)]
        if classify_observations(scenario.prefix, observation, authority=authority):
            by_rule["roa"].add((kind, path_kind))
        elif classify_observations(scenario.prefix, observation, neighbors=neighbors):
            by_rule["neighbors"].add((kind, path_kind))
        else:
            by_rule["cleared"].add((kind, path_kind))
    assert all(by_rule.values()), by_rule
