"""Convergence statistics — validating the flood against the paper.

Paper, Section III: "Convergence is generally reached within 5 to 10
generations." This bench measures the generations-to-convergence
distribution over sampled origins and the per-generation acceptance
wavefront that Fig. 1 visualizes.
"""

from repro.bgp.convergence import generation_wavefront, measure_convergence
from repro.topology.view import RoutingView


def test_convergence_within_paper_band(benchmark, suite):
    view = RoutingView.from_graph(suite.graph)

    stats = benchmark.pedantic(
        measure_convergence, args=(view,),
        kwargs={"sample": 30, "seed": suite.config.seed},
        rounds=1, iterations=1,
    )
    print(f"\nconvergence generations over {stats.samples} announcements: "
          f"min {stats.minimum}, mean {stats.mean:.1f}, max {stats.maximum}")
    print(f"histogram: {dict(stats.histogram)}")
    # Paper band: generally within 5-10; never beyond.
    assert stats.maximum <= 10
    assert stats.within(1, 10) == 1.0


def test_wavefront_has_explosive_middle(benchmark, suite):
    view = RoutingView.from_graph(suite.graph)
    origin = view.node_of(suite.roles.deep_target)
    wavefront = benchmark.pedantic(
        generation_wavefront, args=(view, origin), rounds=1, iterations=1
    )
    print(f"\nacceptances per generation from AS{suite.roles.deep_target}: "
          f"{wavefront}")
    # Fig. 1's shape: the first generation is tiny relative to the peak.
    assert max(wavefront) > 5 * wavefront[0]
    assert sum(wavefront) >= len(view) - 1
