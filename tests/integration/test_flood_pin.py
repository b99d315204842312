"""Pin of the generation-stepped flood: Fig. 1 frames and ABL-CONV counts.

The Fig. 1 animation (``HijackLab.animate``) and the convergence
statistics (``measure_convergence``, ``generation_wavefront``) are the
only outputs of the paper's generation-by-generation flood, as opposed to
the stable state the routing engines compute. This test pins them on a
fixed 400-AS topology: the sha256 of every recorded event (generation,
sender, receiver, accepted, class, length, origin — in order) and the
generation counts of both phases, with and without a full defense, plus
the convergence histogram and one wavefront. Any change to how the flood
steps, orders or counts its messages moves a digest here even when every
stable route stays the same.

To print the current values after an *intentional* model change::

    PYTHONPATH=src python tests/integration/test_flood_pin.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.attacks.lab import HijackLab
from repro.bgp.convergence import generation_wavefront, measure_convergence
from repro.defense.deployment import Defense, FilterRule
from repro.defense.strategies import top_degree_deployment
from repro.registry.publication import PublicationState
from repro.topology.classify import stub_asns, transit_asns
from repro.topology.generator import GeneratorConfig, generate_topology

AS_COUNT = 400
SEED = 35

PINNED = {
    "animate": {
        "plain:4->60": {
            "generations": [7, 6],
            "events": [703, 95],
            "sha256": [
                "9386ce9a85e2f2092467c69af2c9e6b2a2a226e9b71afdfae4a4b9de42c9ecfd",
                "079af4cef1f7dc5f9f07449b7a6d4df6b1cb487af394932c232f4c5b75654740",
            ],
        },
        "plain:66->2": {
            "generations": [8, 6],
            "events": [753, 279],
            "sha256": [
                "ae093b3112b41580155c270185cdc079c29710f510fe6d576feda5a17eb25a58",
                "3a1279db0606cde1b311a360d5a712ee7af70b7fe6191529ba9f4f089ac25d8a",
            ],
        },
        "plain:4->399": {
            "generations": [7, 4],
            "events": [703, 96],
            "sha256": [
                "9386ce9a85e2f2092467c69af2c9e6b2a2a226e9b71afdfae4a4b9de42c9ecfd",
                "5f44abd6d107eca41e5826e2a70361f34794582c2f52ee19626e25c4aeece25a",
            ],
        },
        "plain:71->101": {
            "generations": [9, 5],
            "events": [722, 352],
            "sha256": [
                "00e00a2a8b60b8eee0df4586d4b04a2a27a5bcf6b8c25a3be0c1d6434a6e7951",
                "5023b0b90b4085c4f467f9a68b5dcea610c458ed9510df4cc4970699860497e5",
            ],
        },
        "defended:4->60": {
            "generations": [7, 4],
            "events": [703, 33],
            "sha256": [
                "9386ce9a85e2f2092467c69af2c9e6b2a2a226e9b71afdfae4a4b9de42c9ecfd",
                "3de60bc7f0c370390c641556570ad1dfb79a702b63848cd0ee93e897170f3f2d",
            ],
        },
        "defended:66->2": {
            "generations": [8, 4],
            "events": [753, 184],
            "sha256": [
                "ae093b3112b41580155c270185cdc079c29710f510fe6d576feda5a17eb25a58",
                "e8502abf6138ff1fd530a07d8e5467e15271b9d05815164772211b4a6d33316e",
            ],
        },
        "defended:4->399": {
            "generations": [7, 1],
            "events": [703, 2],
            "sha256": [
                "9386ce9a85e2f2092467c69af2c9e6b2a2a226e9b71afdfae4a4b9de42c9ecfd",
                "33c1e857614d9d2a3f5c3b7575edd08e0e300de32c6ca27476b43a9a0e72be9c",
            ],
        },
        "defended:71->101": {
            "generations": [9, 1],
            "events": [722, 2],
            "sha256": [
                "00e00a2a8b60b8eee0df4586d4b04a2a27a5bcf6b8c25a3be0c1d6434a6e7951",
                "b9f7899f31084bb93827857fa45aed13f01de1730cc221ec191a4fb70987054e",
            ],
        },
    },
    "convergence_histogram": {"8": 9, "9": 3},
    "wavefront": [20, 175, 160, 26, 6, 7, 4],
}


def _event_digest(report) -> str:
    text = "\n".join(
        f"{e.generation} {e.sender} {e.receiver} {int(e.accepted)} "
        f"{int(e.route_class)} {e.length} {e.origin}"
        for e in report.events
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _labs() -> dict[str, HijackLab]:
    graph = generate_topology(GeneratorConfig.scaled(AS_COUNT, seed=SEED))
    lab = HijackLab(graph, seed=SEED)
    transit = sorted(transit_asns(graph))
    guarded = lab.target_prefix(transit[3])
    defense = Defense(
        strategy=top_degree_deployment(graph, 12),
        authority=PublicationState.full(lab.plan).table(),
        manual_filters=(
            FilterRule(transit[9], guarded, frozenset({transit[3]})),
        ),
        stub_filter=True,
    )
    return {"plain": lab, "defended": lab.with_defense(defense)}


def _pairs(lab: HijackLab) -> list[tuple[int, int]]:
    transit = sorted(transit_asns(lab.graph))
    stubs = sorted(stub_asns(lab.graph))
    return [
        (transit[3], transit[-1]),
        (stubs[5], transit[1]),
        (transit[3], stubs[-2]),
        (stubs[10], stubs[40]),
    ]


def compute() -> dict:
    labs = _labs()
    animate: dict[str, dict] = {}
    for name, lab in labs.items():
        for target, attacker in _pairs(lab):
            legit, attack = lab.animate(target, attacker)
            animate[f"{name}:{target}->{attacker}"] = {
                "generations": [legit.generations, attack.generations],
                "events": [len(legit.events), len(attack.events)],
                "sha256": [_event_digest(legit), _event_digest(attack)],
            }
    view = labs["plain"].view
    stats = measure_convergence(view, sample=12, seed=SEED)
    return {
        "animate": animate,
        "convergence_histogram": {str(k): v for k, v in stats.histogram.items()},
        "wavefront": generation_wavefront(view, view.node_of(_pairs(labs["plain"])[0][0])),
    }


@pytest.fixture(scope="module")
def computed() -> dict:
    return compute()


def test_animate_events_pinned(computed):
    assert computed["animate"] == PINNED["animate"]


def test_convergence_histogram_pinned(computed):
    assert computed["convergence_histogram"] == PINNED["convergence_histogram"]


def test_wavefront_pinned(computed):
    assert computed["wavefront"] == PINNED["wavefront"]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps(compute(), indent=4))
