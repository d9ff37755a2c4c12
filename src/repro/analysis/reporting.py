"""Plain-text reporting helpers.

Every experiment driver renders its table/figure as an aligned
ASCII table so runs can be compared to the paper at a glance (and so
EXPERIMENTS.md can be regenerated mechanically).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_cell(value) -> str:
    """Render one cell: floats get a compact fixed precision."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence, x_label: str = "x",
                  y_label: str = "y") -> str:
    """Render a (x, y) series as a two-column table."""
    if len(xs) != len(ys):
        raise ValueError(f"series length mismatch: {len(xs)} vs {len(ys)}")
    return format_table([x_label, y_label], zip(xs, ys), title=name)
