"""Plain-text table rendering for experiment reports.

The paper's evaluation quotes several small tables (top-5 still-potent
attacks, top-5 undetected attacks). ``repro-bgp`` prints the reproduced
tables in the same shape; this module renders them as aligned monospace
text so the CLI and the calibration report share one formatter.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["render_table"]


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table with a header rule."""
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    parts: list[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * width for width in widths))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)
