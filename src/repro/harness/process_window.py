"""Process-window report: the per-corner judgment of finished runs.

The harness counterpart of the robust condition-axis objectives: every
:class:`repro.harness.RunRecord` carries its settings' window judged
corner by corner under the lossless Abbe model
(:func:`repro.harness.evaluate_final`) — per-corner loss / L2 / EPE plus
the window-wide variation band (:func:`repro.metrics.pvb_band_nm2`) and
the robust loss.  This module renders those fields as a corner-matrix
table.  Used by the ``bismo pwindow`` CLI subcommand, which runs
:func:`repro.harness.run_matrix` with a window in its settings, and
directly from python.
"""

from __future__ import annotations

from typing import Sequence

from .runner import RunRecord
from .tables import TableData

__all__ = ["process_window_table"]


def process_window_table(
    records: Sequence[RunRecord], value: str = "l2"
) -> TableData:
    """Corner-matrix table: one row per (method, clip), one column per
    corner plus the window band and the robust loss.

    ``value`` picks the per-corner quantity: ``"l2"`` (nm^2 L2 error),
    ``"loss"`` (squared-error loss) or ``"epe"`` (violation counts).
    """
    fields = {
        "l2": ("corner_l2_nm2", "per-corner L2 (nm^2)"),
        "loss": ("corner_loss", "per-corner loss"),
        "epe": ("corner_epe", "per-corner EPE violations"),
    }
    if value not in fields:
        raise KeyError(f"unknown value {value!r}; choose from {sorted(fields)}")
    attr, caption = fields[value]
    # Failure records carry no corner data; the sweep-health table
    # (repro.harness.report) is where they surface.
    records = [rec for rec in records if rec.status == "ok"]
    if not records:
        raise ValueError("no ok records")
    labels = records[0].corner_labels
    columns = list(labels) + ["band_nm2", "robust"]
    rows = []
    for rec in records:
        if rec.corner_labels != labels:
            raise ValueError("records judge different windows")
        cells = [float(v) for v in getattr(rec, attr)]
        cells += [rec.band_nm2, rec.robust_loss]
        rows.append((f"{rec.clip}/{rec.method}", cells))
    return TableData(
        title=f"Process window — {caption}", columns=columns, rows=rows
    )
