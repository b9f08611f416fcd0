"""Plain-text table rendering helpers.

Small, dependency-free formatting used by the benchmark harness when
printing paper-shaped tables and by the examples.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def text_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    min_width: int = 10,
) -> str:
    """Render an aligned monospace table."""
    materialized: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [max(min_width, len(h)) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def minutes(seconds: float) -> str:
    """Format a duration in minutes with one decimal."""
    return f"{seconds / 60.0:.1f}m"


def percent(fraction: float) -> str:
    """Format a fraction as a percentage."""
    return f"{100.0 * fraction:.1f}%"


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
