"""ASCII table/series rendering for the benchmarks and the CLI.

Every benchmark prints the rows/series its paper figure reports; these
helpers keep that output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

from repro.errors import AnalysisError

Cell = Union[str, int, float]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
) -> str:
    """Fixed-width table with a header rule."""
    row_list = [[_render(c) for c in row] for row in rows]
    for i, row in enumerate(row_list):
        if len(row) != len(headers):
            raise AnalysisError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in row_list:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in row_list:
        lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)))
    return "\n".join(lines)


def format_left_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> str:
    """Left-aligned fixed-width table of string cells with a header rule.

    The CLI / log layout of the serving, cluster, prediction and source
    health tables: trailing blanks are stripped from every line.
    """
    lines = [tuple(headers)] + [tuple(row) for row in rows]
    widths = [max(len(row[i]) for row in lines) for i in range(len(headers))]
    lines.insert(1, tuple("-" * w for w in widths))
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in lines
    )


def format_series(
    pairs: Iterable[Tuple[Cell, Cell]],
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
) -> str:
    """Two-column rendering of a series (one figure line)."""
    return format_table([x_label, y_label], list(pairs), title=title)
