"""Experiment harness: run (method x dataset) sweeps and regenerate every
table and figure of the paper's evaluation section."""

from .runner import (
    METHOD_ORDER,
    RunRecord,
    RunSettings,
    batched_objective,
    evaluate_final,
    run_clip,
    run_joint,
    run_matrix,
)
from .process_window import process_window_table
from .resilience import (
    CellOutcome,
    CheckpointJournal,
    RetryPolicy,
    classify_error,
    execute_cells,
)
from .tables import TableData, table3, table4
from .figures import FIGURE3_METHODS, FigureSeries, figure3_series, figure5_stats
from .report import ascii_plot, render_series, render_table, sweep_health, table_to_csv

__all__ = [
    "CellOutcome",
    "CheckpointJournal",
    "RetryPolicy",
    "classify_error",
    "execute_cells",
    "sweep_health",
    "METHOD_ORDER",
    "RunRecord",
    "RunSettings",
    "run_clip",
    "run_joint",
    "run_matrix",
    "evaluate_final",
    "batched_objective",
    "process_window_table",
    "TableData",
    "table3",
    "table4",
    "FigureSeries",
    "FIGURE3_METHODS",
    "figure3_series",
    "figure5_stats",
    "render_table",
    "table_to_csv",
    "render_series",
    "ascii_plot",
]
