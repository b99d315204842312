"""SVG chart rendering for the evaluation figures.

Two chart shapes cover the whole paper: multi-series line charts for the
vulnerability CCDFs (Figs. 2–6) and a bar chart with an overlaid line for
the detector histograms (Fig. 7). Everything is rendered through
:class:`~repro.viz.svg.SvgCanvas`, so every experiment writes
self-contained, versionable figure files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.viz.svg import SvgCanvas

__all__ = ["Series", "line_chart", "bar_line_chart"]

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 48.0
_MARGIN_BOTTOM = 58.0


@dataclass(frozen=True)
class Series:
    """One labeled curve."""

    label: str
    points: tuple[tuple[float, float], ...]

    @classmethod
    def from_pairs(cls, label: str, pairs) -> "Series":
        return cls(label, tuple((float(x), float(y)) for x, y in pairs))


def _nice_step(span: float) -> float:
    """A 1/2/5×10^k step giving about six ticks across *span*."""
    if span <= 0:
        return 1.0
    raw = span / 6
    magnitude = 10 ** math.floor(math.log10(raw))
    for multiplier in (1, 2, 5, 10):
        if raw <= multiplier * magnitude:
            return multiplier * magnitude
    return 10 * magnitude


def _ticks(low: float, high: float) -> list[float]:
    step = _nice_step(high - low)
    first = math.floor(low / step) * step
    ticks = []
    value = first
    while value <= high + step / 2:
        if value >= low - step / 2:
            ticks.append(value)
        value += step
    return ticks


def _fmt_tick(value: float) -> str:
    if abs(value) >= 1000 and value == int(value):
        return f"{int(value):,}"
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


class _Frame:
    """Axis frame mapping data space to canvas space."""

    def __init__(
        self, canvas: SvgCanvas, x_range: tuple[float, float],
        y_range: tuple[float, float],
    ) -> None:
        self.canvas = canvas
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1
        self.left = _MARGIN_LEFT
        self.right = canvas.width - _MARGIN_RIGHT
        self.top = _MARGIN_TOP
        self.bottom = canvas.height - _MARGIN_BOTTOM

    def x(self, value: float) -> float:
        span = self.x1 - self.x0
        return self.left + (value - self.x0) / span * (self.right - self.left)

    def y(self, value: float) -> float:
        span = self.y1 - self.y0
        return self.bottom - (value - self.y0) / span * (self.bottom - self.top)

    def draw_axes(self, title: str, x_label: str, y_label: str) -> None:
        canvas = self.canvas
        canvas.text(self.left, 26, title, size=15)
        for tick in _ticks(self.x0, self.x1):
            x = self.x(tick)
            canvas.line(x, self.bottom, x, self.top, stroke="#eeeeee")
            canvas.text(x, self.bottom + 18, _fmt_tick(tick), size=10, anchor="middle")
        for tick in _ticks(self.y0, self.y1):
            y = self.y(tick)
            canvas.line(self.left, y, self.right, y, stroke="#eeeeee")
            canvas.text(self.left - 8, y + 3, _fmt_tick(tick), size=10, anchor="end")
        canvas.line(self.left, self.bottom, self.right, self.bottom, stroke="#444")
        canvas.line(self.left, self.bottom, self.left, self.top, stroke="#444")
        canvas.text(
            (self.left + self.right) / 2, self.canvas.height - 16,
            x_label, size=12, anchor="middle",
        )
        canvas.text(
            20, (self.top + self.bottom) / 2, y_label,
            size=12, anchor="middle", rotate=-90.0,
        )


def line_chart(
    series: Sequence[Series],
    *,
    title: str,
    x_label: str,
    y_label: str,
) -> SvgCanvas:
    """A multi-series line chart (the Fig. 2–6 CCDF shape), 860×560."""
    width = 860.0
    canvas = SvgCanvas(width, 560.0)
    xs = [x for item in series for x, _ in item.points] or [0.0, 1.0]
    ys = [y for item in series for _, y in item.points] or [0.0, 1.0]
    frame = _Frame(canvas, (min(xs + [0.0]), max(xs)), (min(ys + [0.0]), max(ys)))
    frame.draw_axes(title, x_label, y_label)
    for index, item in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        if len(item.points) >= 2:
            canvas.polyline(
                [(frame.x(x), frame.y(y)) for x, y in item.points],
                stroke=color, width=1.8,
            )
        elif item.points:
            x, y = item.points[0]
            canvas.circle(frame.x(x), frame.y(y), 3, fill=color)
        legend_y = _MARGIN_TOP + 16 * index
        canvas.line(width - 190, legend_y, width - 165, legend_y, stroke=color, width=2.5)
        canvas.text(width - 158, legend_y + 4, item.label, size=11)
    return canvas


def bar_line_chart(
    bars: Mapping[int, int],
    line: Mapping[int, float],
    *,
    title: str,
    x_label: str,
    bar_label: str,
    line_label: str,
) -> SvgCanvas:
    """Fig. 7's shape, 860×480: histogram bars plus a mean-size line on a
    second axis."""
    width = 860.0
    canvas = SvgCanvas(width, 480.0)
    categories = sorted(set(bars) | set(line))
    if not categories:
        categories = [0]
    max_bar = max(bars.values(), default=1) or 1
    max_line = max(line.values(), default=1.0) or 1.0
    frame = _Frame(canvas, (-0.5, len(categories) - 0.5), (0.0, float(max_bar)))
    frame.draw_axes(title, x_label, bar_label)
    slot = (frame.right - frame.left) / len(categories)
    for index, category in enumerate(categories):
        count = bars.get(category, 0)
        x = frame.left + slot * index + slot * 0.15
        y = frame.y(count)
        canvas.rect(x, y, slot * 0.7, frame.bottom - y, fill="#1f77b4")
        canvas.text(
            frame.left + slot * (index + 0.5), frame.bottom + 18,
            str(category), size=10, anchor="middle",
        )
        if count:
            canvas.text(
                frame.left + slot * (index + 0.5), y - 4,
                str(count), size=9, anchor="middle", fill="#555",
            )
    points = []
    for index, category in enumerate(categories):
        if category in line:
            x = frame.left + slot * (index + 0.5)
            y = frame.bottom - (line[category] / max_line) * (frame.bottom - frame.top)
            points.append((x, y))
    if len(points) >= 2:
        canvas.polyline(points, stroke="#d62728", width=2.0)
    for x, y in points:
        canvas.circle(x, y, 2.5, fill="#d62728")
    canvas.text(width - 250, _MARGIN_TOP, f"bars: {bar_label}", size=11, fill="#1f77b4")
    canvas.text(width - 250, _MARGIN_TOP + 16, f"line: {line_label} (max {max_line:.0f})", size=11, fill="#d62728")
    return canvas
