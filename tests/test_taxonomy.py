"""The attack-taxonomy conformance matrix (the ISSUE's headline suite).

One table row per cell of the ARTEMIS grid — prefix axis (origin /
sub-prefix / squat / route-leak) × path axis (type-0/1/N/U) — asserting,
on **both** convergence backends:

* the exact polluted AS set on the hand-verifiable mini topology, open
  and under two receiver-side defenses (ROV everywhere, ROV + first-hop
  path check everywhere);
* the detection verdict under four detector policies (``none`` =
  historical data only, ``roa`` = ROV, ``roa+neighbors`` = ARTEMIS-style
  first-hop verification, ``full`` = + topology knowledge) — including
  the cells origin validation provably cannot catch (origin × type-1/N/U
  and the route leak are invisible to ``roa``).

Every lab runs with ``validate=True``, so each converged state also
passes the :mod:`repro.oracle.invariants` suite with claimed-path
padding. ``docs/attacks.md`` narrates the same matrix.
"""

from __future__ import annotations

import pytest

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import (
    HijackKind,
    HijackScenario,
    PathKind,
    synthetic_forged_path,
)
from repro.defense.deployment import Defense
from repro.defense.strategies import DeploymentStrategy
from repro.detection.detector import HijackDetector
from repro.detection.moas import MoasVerdict
from repro.detection.probes import top_degree_probes
from repro.detection.taxonomy import (
    PathObservation,
    classify_observations,
    grid_cells,
    leak_suspect,
    nonexistent_links,
)
from repro.prefixes.prefix import Prefix
from repro.registry.neighbors import NeighborRegistry
from repro.registry.publication import PublicationState
from repro.topology.classify import customer_cone

from tests.conftest import build_mini_graph

TARGET, ATTACKER = 50, 60
FULL_POLLUTION = (1, 2, 10, 20, 30, 40, 50, 70, 80)

HIJACK = MoasVerdict.HIJACK
FORGED = MoasVerdict.FORGED_PATH
LEAK = MoasVerdict.ROUTE_LEAK

# One row per grid cell: expected polluted ASNs (open / ROV-everywhere /
# ROV+path-check-everywhere) and the verdict ladder (None = unclassified,
# i.e. the attack slips past that detector policy).
#   (kind, path_kind, open_polluted, rov_polluted, rov_path_polluted,
#    {policy: verdict})
MATRIX = [
    (HijackKind.ORIGIN, PathKind.TYPE_0, (2, 20, 40), (), (),
     {"none": HIJACK, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.ORIGIN, PathKind.TYPE_1, (20, 40), (20, 40), (),
     {"none": None, "roa": None, "roa+neighbors": FORGED, "full": FORGED}),
    (HijackKind.ORIGIN, PathKind.TYPE_N, (20, 40), (20, 40), (),
     {"none": None, "roa": None, "roa+neighbors": FORGED, "full": FORGED}),
    (HijackKind.ORIGIN, PathKind.TYPE_U, (20, 40), (20, 40), (20, 40),
     {"none": None, "roa": None, "roa+neighbors": None, "full": LEAK}),
    (HijackKind.SUBPREFIX, PathKind.TYPE_0, FULL_POLLUTION, (), (),
     {"none": HIJACK, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.SUBPREFIX, PathKind.TYPE_1, FULL_POLLUTION, (), (),
     {"none": None, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.SUBPREFIX, PathKind.TYPE_N, FULL_POLLUTION, (), (),
     {"none": None, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.SUBPREFIX, PathKind.TYPE_U, FULL_POLLUTION, (), (),
     {"none": None, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.SQUAT, PathKind.TYPE_0, FULL_POLLUTION, (), (),
     {"none": HIJACK, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.SQUAT, PathKind.TYPE_1, FULL_POLLUTION, (), (),
     {"none": None, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.SQUAT, PathKind.TYPE_N, FULL_POLLUTION, (), (),
     {"none": None, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.SQUAT, PathKind.TYPE_U, FULL_POLLUTION, (), (),
     {"none": HIJACK, "roa": HIJACK, "roa+neighbors": HIJACK, "full": HIJACK}),
    (HijackKind.ROUTE_LEAK, PathKind.TYPE_U, (20, 40), (20, 40), (20, 40),
     {"none": None, "roa": None, "roa+neighbors": None, "full": LEAK}),
]

CELL_IDS = [f"{kind.value}-{path_kind.value}" for kind, path_kind, *_ in MATRIX]

# The expected claimed path per cell (the AS path attribute as received,
# claimed origin last) — the mini topology's legitimate route 60→40→20→
# 10→30→50 drives the replayed cells.
CLAIMED = {
    (HijackKind.ORIGIN, PathKind.TYPE_0): (60,),
    (HijackKind.ORIGIN, PathKind.TYPE_1): (60, 50),
    (HijackKind.ORIGIN, PathKind.TYPE_N): (60, 64512, 50),
    (HijackKind.ORIGIN, PathKind.TYPE_U): (40, 20, 10, 30, 50),
    (HijackKind.SUBPREFIX, PathKind.TYPE_U): (40, 20, 10, 30, 50),
    (HijackKind.SQUAT, PathKind.TYPE_U): (60,),
    (HijackKind.ROUTE_LEAK, PathKind.TYPE_U): (60, 40, 20, 10, 30, 50),
}


@pytest.fixture(scope="module", params=["reference", "array"])
def grid(request):
    """One lab + the detector ladder + the defended labs, per backend."""
    graph = build_mini_graph()
    lab = HijackLab(graph, seed=0, validate=True, backend=request.param)
    authority = PublicationState.full(lab.plan).table()
    neighbors = NeighborRegistry.from_graph(graph)
    probes = top_degree_probes(graph, count=4)
    everyone = DeploymentStrategy("everyone", frozenset(graph.asns()))
    return {
        "graph": graph,
        "lab": lab,
        "rov": lab.with_defense(Defense(strategy=everyone, authority=authority)),
        "rov+path": lab.with_defense(
            Defense(strategy=everyone, authority=authority, neighbors=neighbors)
        ),
        "detectors": {
            "none": HijackDetector(probes=probes),
            "roa": HijackDetector(probes=probes, authority=authority),
            "roa+neighbors": HijackDetector(
                probes=probes, authority=authority, neighbors=neighbors
            ),
            "full": HijackDetector(
                probes=probes, authority=authority,
                neighbors=neighbors, relationships=graph,
            ),
        },
    }


def _scenario(lab: HijackLab, kind: HijackKind, path_kind: PathKind) -> HijackScenario:
    return lab.build_scenario(
        TARGET, ATTACKER, kind=kind, path_kind=path_kind, forged_depth=2
    )


class TestConformanceMatrix:
    """The table itself: every cell, every policy, both backends."""

    @pytest.mark.parametrize(
        "kind,path_kind,open_polluted,rov_polluted,rov_path_polluted,verdicts",
        MATRIX, ids=CELL_IDS,
    )
    def test_cell(self, grid, kind, path_kind, open_polluted,
                  rov_polluted, rov_path_polluted, verdicts):
        lab = grid["lab"]
        scenario = _scenario(lab, kind, path_kind)
        outcome = lab.run_scenario(scenario)

        # Pollution: open network and both receiver-side defenses.
        assert outcome.polluted_asns == frozenset(open_polluted)
        assert grid["rov"].run_scenario(scenario).polluted_asns == frozenset(
            rov_polluted
        )
        assert grid["rov+path"].run_scenario(scenario).polluted_asns == frozenset(
            rov_path_polluted
        )

        # The claimed path carried by the announcement.
        expected_claim = CLAIMED.get((kind, path_kind))
        if expected_claim is not None:
            assert outcome.claimed_path == expected_claim

        # The detector ladder: every policy's verdict, exactly.
        for policy, expected in verdicts.items():
            report = grid["detectors"][policy].observe(outcome)
            assert report.verdict is expected, (
                f"{kind.value}/{path_kind.value} under {policy}: "
                f"expected {expected}, got {report.verdict}"
            )
            assert report.detected is (expected is not None)

    def test_every_grid_cell_is_covered(self):
        assert {(kind, path_kind) for kind, path_kind, *_ in MATRIX} == set(
            grid_cells()
        )
        assert len(grid_cells()) == 13

    def test_rov_blind_spot_is_real(self, grid):
        """The headline claim: a type-1 origin hijack carries a VALID
        claimed origin, so ROV neither blocks nor classifies it — yet it
        pollutes almost as much as the classic type-0."""
        lab = grid["lab"]
        type0 = lab.run_scenario(_scenario(lab, HijackKind.ORIGIN, PathKind.TYPE_0))
        type1 = lab.run_scenario(_scenario(lab, HijackKind.ORIGIN, PathKind.TYPE_1))
        assert grid["detectors"]["roa"].observe(type0).detected
        assert not grid["detectors"]["roa"].observe(type1).detected
        assert type1.pollution_count >= type0.pollution_count - 1

    def test_ladder_is_monotone(self, grid):
        """Each policy rung classifies a superset of the cells below it."""
        lab = grid["lab"]
        order = ["none", "roa", "roa+neighbors", "full"]
        caught = {policy: set() for policy in order}
        for kind, path_kind, *_ in MATRIX:
            outcome = lab.run_scenario(_scenario(lab, kind, path_kind))
            for policy in order:
                if grid["detectors"][policy].observe(outcome).detected:
                    caught[policy].add((kind, path_kind))
        # "none" is historical-data optimism (catches a mismatching
        # claimed origin without any published data), so monotonicity is
        # asserted from the published-data rungs upward.
        assert caught["roa"] <= caught["roa+neighbors"] <= caught["full"]
        assert caught["full"] == set(grid_cells())


class TestScenarioValidation:
    """Satellite: ``HijackScenario.__post_init__`` guards the new fields."""

    PREFIX = Prefix.parse("10.0.0.0/16")

    def _scenario(self, **overrides):
        base = dict(
            target_asn=TARGET, attacker_asn=ATTACKER, prefix=self.PREFIX
        )
        base.update(overrides)
        return HijackScenario(**base)

    def test_type1_autofills_forged_path(self):
        scenario = self._scenario(path_kind=PathKind.TYPE_1)
        assert scenario.forged_path == (ATTACKER, TARGET)
        assert scenario.forged_depth == 1

    def test_attacker_must_lead_its_own_forged_path(self):
        with pytest.raises(ValueError, match="attacker must appear first"):
            self._scenario(
                path_kind=PathKind.TYPE_N, forged_path=(99, 64512, TARGET)
            )

    def test_forged_path_must_end_at_target(self):
        with pytest.raises(ValueError, match="legitimate origin last"):
            self._scenario(
                path_kind=PathKind.TYPE_N, forged_path=(ATTACKER, 64512, 99)
            )

    def test_type0_rejects_forged_path(self):
        with pytest.raises(ValueError, match="type-0"):
            self._scenario(
                path_kind=PathKind.TYPE_0, forged_path=(ATTACKER, TARGET)
            )

    def test_synthetic_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="depth"):
            synthetic_forged_path(ATTACKER, TARGET, 0)

    def test_synthetic_path_shape(self):
        path = synthetic_forged_path(ATTACKER, TARGET, 3)
        assert path == (ATTACKER, 64512, 64513, TARGET)

    def test_route_leak_normalizes_to_type_u(self):
        scenario = self._scenario(kind=HijackKind.ROUTE_LEAK)
        assert scenario.path_kind is PathKind.TYPE_U
        assert scenario.forged_path == ()

    def test_route_leak_rejects_forged_paths(self):
        with pytest.raises(ValueError, match="route leak"):
            self._scenario(
                kind=HijackKind.ROUTE_LEAK,
                path_kind=PathKind.TYPE_1,
            )

    def test_origin_default_is_backward_compatible(self):
        """Pickled sweep-cache keys from pre-taxonomy runs must keep
        hashing/comparing equal: the new fields default inert."""
        import pickle

        old_style = self._scenario()
        assert old_style.path_kind is PathKind.TYPE_0
        assert old_style.forged_path == ()
        assert old_style.static_claimed_path == (ATTACKER,)
        clone = pickle.loads(pickle.dumps(old_style))
        assert clone == old_style
        assert hash(clone) == hash(old_style)


class TestClassifierRules:
    """Direct unit coverage of the taxonomy rule ladder."""

    PREFIX = Prefix.parse("10.0.0.0/16")

    @pytest.fixture(scope="class")
    def graph(self):
        return build_mini_graph()

    def test_nonexistent_links_flags_fabricated_hops(self, graph):
        assert nonexistent_links((60, 64512, 50), graph) == (
            (60, 64512), (64512, 50),
        )
        assert nonexistent_links((40, 20, 10, 30, 50), graph) == ()

    def test_leak_suspect_requires_provider_or_peer_head(self, graph):
        assert leak_suspect((60, 40, 20, 10, 30, 50), graph)  # 40 is 60's provider
        assert leak_suspect((40, 20, 10, 30, 50), graph)  # 20 is 40's provider
        assert not leak_suspect((10, 30, 50), graph)  # 30 is 10's customer
        assert not leak_suspect((50,), graph)  # an origin cannot leak

    def test_customer_cone(self, graph):
        assert customer_cone(graph, 60) == {60}
        assert customer_cone(graph, 40) == {40, 60}
        assert customer_cone(graph, 10) == {10, 30, 50, 80}

    def test_leak_needs_a_witness_outside_the_cone(self, graph):
        tail = (60, 40, 20, 10, 30, 50)
        inside = classify_observations(
            self.PREFIX,
            [PathObservation(tail=tail, witnesses=(60,))],
            relationships=graph,
        )
        assert inside is None  # only seen inside 60's cone: no proof
        outside = classify_observations(
            self.PREFIX,
            [PathObservation(tail=tail, witnesses=(20,))],
            relationships=graph,
        )
        assert outside is not None
        assert outside.verdict is MoasVerdict.ROUTE_LEAK
        assert outside.culprit_paths == (tail,)

    def test_neighbor_registry_is_conservative(self, graph):
        registry = NeighborRegistry.from_graph(graph)
        assert registry.first_hop_forged((60, 50))  # 60 never sessions with 50
        assert not registry.first_hop_forged((30, 50))  # real first hop
        assert not registry.first_hop_forged((50,))  # nothing to verify
        partial = NeighborRegistry({50: (30,)})
        assert 99 not in partial
        assert not partial.first_hop_forged((60, 99))  # undeclared: no proof

    def test_moas_fallback_still_applies(self, graph):
        """With paths but no path-level proof, origin-set logic
        decides — here an unverifiable two-origin MOAS."""
        report = classify_observations(
            self.PREFIX,
            [
                PathObservation(tail=(30, 50), witnesses=(10,)),
                PathObservation(tail=(40, 60), witnesses=(20,)),
            ],
        )
        assert report is not None
        assert report.verdict is MoasVerdict.UNVERIFIABLE
        assert report.origins == (50, 60)
