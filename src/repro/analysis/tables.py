"""Plain-text and markdown table rendering for benchmark reports.

Small, dependency-free formatting used by the benchmark harnesses, the
examples, and the CLI so that "the same rows the paper reports" come out
aligned and readable in a terminal.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


def _stringify(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table.

    Columns are right-aligned except the first (labels, left-aligned).
    """
    str_rows: List[List[str]] = [[_stringify(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, headers have {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i == 0:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts)

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in str_rows)
    return "\n".join(lines)


def format_markdown_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> str:
    """Render a GitHub-flavoured markdown table."""
    str_rows = [[_stringify(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, headers have {len(headers)}"
            )
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in str_rows)
    return "\n".join(lines)
