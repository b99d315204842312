"""Section III and Fig. 1: how one announcement floods the topology.

Paper: "Convergence is generally reached within 5 to 10 generations";
an aggressive attacker hijacking a very vulnerable depth-5 target
converges within 7 generations and draws 96% of the address space.
"""

from repro.bgp.convergence import generation_wavefront, measure_convergence


def test_convergence_within_paper_band(suite):
    stats = measure_convergence(suite.lab.view, sample=30, seed=suite.config.seed)
    # Paper band: generally within 5-10; never beyond.
    assert stats.maximum <= 10
    assert stats.within(1, 10) == 1.0


def test_wavefront_has_explosive_middle(suite):
    view = suite.lab.view
    wavefront = generation_wavefront(view, view.node_of(suite.roles.deep_target))
    # Fig. 1's shape: the first generation is tiny relative to the peak.
    assert max(wavefront) > 5 * wavefront[0]
    assert sum(wavefront) >= len(view) - 1


def test_deep_hijack_captures_most_address_space(experiment):
    result = experiment("fig1")
    summary = result.summary
    assert 3 <= summary["generations"] <= 12
    assert summary["address_space_fraction"] > 0.5  # paper: 96%
    assert result.artifacts
