"""Rendering Fig. 1: the polar propagation movie of an origin hijack.

Each generation of the attack becomes one SVG frame: red lines are
announcements that were *accepted* (the receiving AS is polluted), green
lines announcements *rejected* because the AS already holds a preferred
path — exactly the encoding of the paper's Fig. 1. The final frame doubles
as the "after" picture the paper recommends for studying filter placement
("especially when comparing before & after scenarios to see the effect of
prefix filters and where attacks are still getting through").
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.topology.view import RoutingView
from repro.viz.layout import PolarLayout
from repro.viz.svg import SvgCanvas

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.oracle.reference import PropagationReport

__all__ = ["PolarRenderer", "render_attack_frames"]

_ACCEPT_COLOR = "#c0392b"  # red: bogus announcement accepted
_REJECT_COLOR = "#27ae60"  # green: rejected, preferred path retained
_NODE_COLOR = "#2c3e50"
_POLLUTED_COLOR = "#e74c3c"
_RING_COLOR = "#dddddd"


@dataclass
class PolarRenderer:
    """Draws propagation frames over a fixed polar layout."""

    layout: PolarLayout
    view: RoutingView
    size: float = 900.0

    @property
    def _center(self) -> float:
        return self.size / 2

    @property
    def _scale(self) -> float:
        return self.size / 2 - 40

    def _canvas_with_rings(self, title: str) -> SvgCanvas:
        canvas = SvgCanvas(self.size, self.size)
        rings = self.layout.max_depth + 1
        for ring in range(1, rings + 1):
            radius = self._scale * ring / rings
            canvas.circle(
                self._center, self._center, radius,
                fill="none", stroke=_RING_COLOR,
            )
        canvas.text(20, 28, title, size=16)
        canvas.text(
            20, self.size - 18,
            "red = bogus route accepted, green = rejected (preferred path kept)",
            size=11, fill="#777",
        )
        return canvas

    def _xy(self, asn: int) -> tuple[float, float]:
        return self.layout.position_of(asn).xy(
            center=self._center, scale=self._scale
        )

    def render_frame(
        self,
        report: PropagationReport,
        generation: int,
        *,
        polluted_so_far: frozenset[int],
        title: str,
    ) -> SvgCanvas:
        """One generation: its messages plus the cumulative polluted set."""
        canvas = self._canvas_with_rings(title)
        for event in report.events_in_generation(generation):
            sender_asn = self.view.asn_of(event.sender)
            receiver_asn = self.view.asn_of(event.receiver)
            x1, y1 = self._xy(sender_asn)
            x2, y2 = self._xy(receiver_asn)
            canvas.line(
                x1, y1, x2, y2,
                stroke=_ACCEPT_COLOR if event.accepted else _REJECT_COLOR,
                width=0.8 if event.accepted else 0.5,
                opacity=0.8 if event.accepted else 0.35,
            )
        for asn, position in self.layout.positions.items():
            x, y = position.xy(center=self._center, scale=self._scale)
            polluted = asn in polluted_so_far
            canvas.circle(
                x, y, position.size if polluted else max(1.0, position.size * 0.6),
                fill=_POLLUTED_COLOR if polluted else _NODE_COLOR,
                opacity=0.9 if polluted else 0.45,
            )
        return canvas


def render_attack_frames(
    renderer: PolarRenderer,
    attack_report: PropagationReport,
    output_dir: str | Path,
    *,
    attacker_asn: int,
    target_asn: int,
) -> list[Path]:
    """Write one SVG per generation plus a final summary frame."""
    output_dir = Path(output_dir)
    view = renderer.view
    paths: list[Path] = []
    polluted: set[int] = set()
    for generation in range(1, attack_report.generations + 1):
        for event in attack_report.events_in_generation(generation):
            if event.accepted:
                polluted.update(view.members[event.receiver])
        title = (
            f"AS{attacker_asn} hijacks AS{target_asn} — generation "
            f"{generation}: {len(polluted)} ASes polluted"
        )
        canvas = renderer.render_frame(
            attack_report, generation,
            polluted_so_far=frozenset(polluted), title=title,
        )
        paths.append(canvas.save(output_dir / f"generation_{generation:02d}.svg"))
    return paths
