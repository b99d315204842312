"""Visualisation: polar propagation graphs (Fig. 1) and SVG charts."""

from repro.viz.charts import Series, bar_line_chart, line_chart
from repro.viz.layout import PolarLayout
from repro.viz.polar import PolarRenderer, render_attack_frames
from repro.viz.svg import SvgCanvas

__all__ = [
    "PolarLayout",
    "PolarRenderer",
    "Series",
    "SvgCanvas",
    "bar_line_chart",
    "line_chart",
    "render_attack_frames",
]
