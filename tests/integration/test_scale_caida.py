"""Full-CAIDA-scale integration: the paper's Fig. 2 at 42,697 ASes.

Everything below the unit tiers runs on reduced topologies; this module
is the one place the whole pipeline — CAIDA serial-1 fixture on disk,
the real :func:`repro.topology.caida.load_caida_mmap` parser, role
resolution, the array convergence backend, the vulnerability profiler —
runs at the paper's actual scale (42,697 ASes, ~139k links). The
headline assertion is Fig. 2's: vulnerability rises sharply with target
depth, so severity must rank tier-1 < depth-1 stubs < depth-2 stub <
the deepest stub, with the multi-homed depth-1 stub no more vulnerable
than the single-homed one.

The sweep takes ~40 s, so the module is marked ``scale`` and gated on
``REPRO_SCALE=1`` — the nightly fuzz workflow sets it; the per-PR gate
never runs it (see docs/testing.md).
"""

from __future__ import annotations

import os

import pytest

from repro.attacks.lab import HijackLab
from repro.bgp.engine import RoutingEngine
from repro.core.roles import resolve_roles
from repro.core.vulnerability import profile_target
from repro.topology.caida import dump_caida, load_caida_mmap
from repro.topology.scalefixture import ScaleFixtureConfig, generate_scale_fixture

pytestmark = [
    pytest.mark.scale,
    pytest.mark.skipif(
        not os.environ.get("REPRO_SCALE"),
        reason="full-CAIDA-scale test; set REPRO_SCALE=1 (nightly job) to run",
    ),
]

ATTACKER_SAMPLE = 250


@pytest.fixture(scope="module")
def scale_graph(tmp_path_factory):
    """The deterministic 42,697-AS fixture, via the real CAIDA parser."""
    path = tmp_path_factory.mktemp("scale") / "caida-scale.txt.gz"
    config = ScaleFixtureConfig()
    dump_caida(generate_scale_fixture(config), path)
    graph = load_caida_mmap(path)
    assert len(graph.asns()) == config.as_count
    return graph


def test_fig2_vulnerability_ranks_by_depth_at_full_scale(scale_graph):
    roles = resolve_roles(scale_graph)
    lab = HijackLab(scale_graph, backend="array", seed=2014)
    severity = {
        label: profile_target(
            lab, asn, label=label, sample=ATTACKER_SAMPLE, seed=99
        ).severity()
        for label, asn in roles.fig2_targets().items()
    }
    deep_label = f"depth-{roles.deep_target_depth} AS"
    single = severity["depth-1 single-homed stub"]
    multi = severity["depth-1 multi-homed stub"]
    # Fig. 2's qualitative content: each step down the hierarchy is
    # strictly more vulnerable, and multihoming helps at equal depth.
    assert severity["tier-1"] < min(single, multi)
    assert max(single, multi) < severity["depth-2 stub"]
    assert severity["depth-2 stub"] < severity[deep_label]
    assert multi <= single


def test_array_backend_checksums_match_reference_at_full_scale(scale_graph):
    """Spot-check the backend contract at the paper's scale: same fixture,
    same origins, identical checksums (the property battery covers the
    small-topology space exhaustively; this pins the 42k-node path)."""
    from repro.topology.view import RoutingView

    view = RoutingView.from_graph(scale_graph)
    reference = RoutingEngine(view)
    array = RoutingEngine(view, backend="array")
    origins = (0, len(view) // 2, len(view) - 1)
    for origin in origins:
        assert reference.converge(origin).checksum() == array.converge(origin).checksum()
    base_ref = reference.converge(origins[0]).freeze()
    base_arr = array.converge(origins[0]).freeze()
    hijacked_ref = reference.converge(origins[1], base=base_ref)
    hijacked_arr = array.converge(origins[1], base=base_arr)
    assert hijacked_ref.checksum() == hijacked_arr.checksum()
