"""Plain-text rendering of experiment results.

Every experiment's ``render`` (:data:`repro.experiments.EXPERIMENTS`) prints
the same rows/series the paper's tables and figures report; these helpers keep
that output readable and consistent, on the terminal and in the paper suite's
``benchmarks/results/latest_report.txt``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["format_table", "format_series", "format_value"]


def format_value(value: Any) -> str:
    """Render one cell: compact floats, plain ints, str() otherwise."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:,.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = "") -> str:
    """Render rows as a fixed-width text table."""
    rendered_rows = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, points: Iterable[tuple[Any, Any]]) -> str:
    """Render an (x, y) series on one line, e.g. an MCMC trajectory."""
    body = ", ".join(f"{format_value(x)}:{format_value(y)}" for x, y in points)
    return f"{name}: {body}"
