"""Plain-text and CSV rendering of harness outputs."""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from .figures import FigureSeries
from .tables import TableData

__all__ = [
    "render_table",
    "table_to_csv",
    "render_series",
    "ascii_plot",
    "sweep_health",
]


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def render_table(table: TableData, max_width: int = 14) -> str:
    """Monospace rendering of a :class:`TableData`."""
    headers = ["" ] + [c[:max_width] for c in table.columns]
    body = [[label] + [_fmt(v) for v in cells] for label, cells in table.rows]
    widths = [max(len(row[i]) for row in [headers] + body) for i in range(len(headers))]
    lines = [table.title, "-" * min(100, sum(widths) + 2 * len(widths))]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def table_to_csv(table: TableData, path: Union[str, Path]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([table.title])
        writer.writerow([""] + table.columns)
        for label, cells in table.rows:
            writer.writerow([label] + list(cells))


def sweep_health(records: Sequence) -> TableData:
    """Resilience accounting of a sweep: per (dataset, method) counts of
    ok / failed / timed-out records, how many needed retries, and the
    worst attempt count.

    Reads the ``status`` / ``attempts`` fields of
    :class:`~repro.harness.RunRecord`, or of any record that carries
    them.  The metric tables and the process-window table silently skip
    non-``"ok"`` records; this table is where those cells stay visible.
    """
    grouped: Dict[str, List] = defaultdict(list)
    for rec in records:
        grouped[f"{rec.dataset}/{rec.method}"].append(rec)
    columns = ["records", "ok", "failed", "timeout", "retried", "max attempts"]
    rows: List = []
    for label in sorted(grouped):
        recs = grouped[label]
        statuses = [r.status for r in recs]
        rows.append(
            (
                label,
                [
                    float(len(recs)),
                    float(statuses.count("ok")),
                    float(statuses.count("failed")),
                    float(statuses.count("timeout")),
                    float(sum(1 for r in recs if r.attempts > 1)),
                    float(max((r.attempts for r in recs), default=0)),
                ],
            )
        )
    return TableData(title="Sweep health", columns=columns, rows=rows)


def render_series(series: Sequence[FigureSeries]) -> str:
    """Tabular text dump of figure series (step-indexed columns)."""
    buf = io.StringIO()
    n = max(len(s.values) for s in series)
    labels = [f"{s.label}[{s.style}]" for s in series]
    buf.write("step," + ",".join(labels) + "\n")
    for i in range(n):
        row = [str(i)]
        for s in series:
            row.append(f"{s.values[i]:.4f}" if i < len(s.values) else "")
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def ascii_plot(
    series: Sequence[FigureSeries], width: int = 72, height: int = 18
) -> str:
    """Quick terminal plot so convergence shapes are visible without
    matplotlib (which is unavailable offline)."""
    chars = "abcdefghijklmnopqrstuvwxyz"
    all_y = np.concatenate([s.values for s in series])
    all_x = np.concatenate([s.steps for s in series])
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    canvas = [[" "] * width for _ in range(height)]
    for si, s in enumerate(series):
        mark = chars[si % len(chars)]
        for x, y in zip(s.steps, s.values):
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y_hi - y) / (y_hi - y_lo) * (height - 1))
            canvas[row][col] = mark
    lines = [f"{y_hi:+.2f} " + "".join(canvas[0])]
    for row in canvas[1:-1]:
        lines.append(" " * 6 + "".join(row))
    lines.append(f"{y_lo:+.2f} " + "".join(canvas[-1]))
    legend = "  ".join(
        f"{chars[i % len(chars)]}={s.label}" for i, s in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)
