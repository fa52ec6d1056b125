"""Process-window report: per-corner metrics for finished runs.

The harness counterpart of the robust condition-axis objectives: judge a
finished (source, mask) pair at *every* corner of a
:class:`repro.optics.ProcessWindow` under the lossless Abbe model —
per-corner loss / L2 / EPE plus the window-wide variation band
(:func:`repro.metrics.pvb_band_nm2`) — and render the result as a
corner-matrix table.  Used by the ``bismo pwindow`` CLI subcommand and
directly from python.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..layouts import Clip
from ..metrics import epe_report, l2_error_nm2, pvb_band_nm2
from ..optics import ProcessWindow
from ..smo import SMOResult
from ..smo.objective import robust_tile_losses
from .. import obs
from ..utils.faultinject import fault_point
from .runner import (
    RunSettings,
    _annular_source,
    _dispatch,
    _judge,
    _run_sweep,
    _target_image,
)
from .tables import TableData

__all__ = [
    "ProcessWindowRecord",
    "evaluate_process_window",
    "run_process_window",
    "process_window_table",
]


@dataclass
class ProcessWindowRecord:
    """Per-corner judgment of one (method, clip) run.

    Like :class:`repro.harness.RunRecord`, carries resilience
    bookkeeping: ``status`` is ``"ok"`` unless the cell exhausted its
    retry budget (``"failed"`` / ``"timeout"``, NaN metrics, details in
    ``error``); ``attempts`` counts executions.
    """

    method: str
    dataset: str
    clip: str
    corner_labels: Tuple[str, ...]
    corner_loss: np.ndarray  # (C,) squared-error loss per corner
    corner_l2_nm2: np.ndarray  # (C,) L2 error per corner
    corner_epe: np.ndarray  # (C,) EPE violation counts per corner
    band_nm2: float  # variation band across ALL corners
    robust_loss: float  # the robust reduction of corner_loss
    runtime_s: float = 0.0
    losses: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    #: Per-corner resist thresholds the judge applied (config default
    #: unless the corner carries a calibrated override).
    corner_thresholds: Tuple[float, ...] = ()
    #: Final adaptive corner weights of the run (``robust="adaptive"``
    #: solves only; the judge's robust reduction uses them), else None.
    corner_weights: Optional[np.ndarray] = None
    status: str = "ok"
    error: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> Dict[str, Any]:
        """Plain-``json`` form for the checkpoint journal (floats revive
        bitwise — python's ``json`` writes ``repr``-exact doubles)."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "clip": self.clip,
            "corner_labels": list(self.corner_labels),
            "corner_loss": np.asarray(self.corner_loss, dtype=np.float64).tolist(),
            "corner_l2_nm2": np.asarray(
                self.corner_l2_nm2, dtype=np.float64
            ).tolist(),
            "corner_epe": [int(v) for v in np.asarray(self.corner_epe)],
            "band_nm2": self.band_nm2,
            "robust_loss": self.robust_loss,
            "runtime_s": self.runtime_s,
            "losses": np.asarray(self.losses, dtype=np.float64).tolist(),
            "corner_thresholds": [float(v) for v in self.corner_thresholds],
            "corner_weights": (
                None
                if self.corner_weights is None
                else np.asarray(self.corner_weights, dtype=np.float64).tolist()
            ),
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ProcessWindowRecord":
        weights = data.get("corner_weights")
        return cls(
            method=str(data["method"]),
            dataset=str(data["dataset"]),
            clip=str(data["clip"]),
            corner_labels=tuple(data["corner_labels"]),
            corner_loss=np.asarray(data["corner_loss"], dtype=np.float64),
            corner_l2_nm2=np.asarray(data["corner_l2_nm2"], dtype=np.float64),
            corner_epe=np.asarray(data["corner_epe"], dtype=np.int64),
            band_nm2=float(data["band_nm2"]),
            robust_loss=float(data["robust_loss"]),
            runtime_s=float(data["runtime_s"]),
            losses=np.asarray(data["losses"], dtype=np.float64),
            corner_thresholds=tuple(
                float(v) for v in data.get("corner_thresholds", [])
            ),
            corner_weights=(
                None if weights is None else np.asarray(weights, dtype=np.float64)
            ),
            status=str(data.get("status", "ok")),
            error=str(data.get("error", "")),
            attempts=int(data.get("attempts", 1)),
        )


def evaluate_process_window(
    result: SMOResult,
    clip: Clip,
    settings: RunSettings,
    source_fallback: Optional[np.ndarray] = None,
) -> ProcessWindowRecord:
    """Judge a finished run at every corner of the settings' window
    (the paper's default window when ``settings.process_window`` is
    None).

    The same judge as :func:`repro.harness.evaluate_final` (lossless
    Abbe model, binarized mask, the same source fallback) over the
    whole corner grid: the per-corner resist images come from one fused
    condition-axis evaluation (shared mask spectrum across the window's
    pupil conditions — defocus and general Zernike aberrations alike —
    dose corners free), not C independent simulations.  Per-corner
    calibrated resist thresholds are honored and reported.  The robust
    column is reduced under the *settings'* regime (static window
    weights for ``"sum"`` / ``"max"``) so records judged with one
    settings object stay comparable across methods; only
    ``settings.robust="adaptive"`` reduces with a run's final minimax
    weights — which ride the record's ``corner_weights`` either way for
    inspection.
    """
    cfg = settings.config
    window = settings.process_window or ProcessWindow.from_config(cfg)
    target, resists = _judge(result, clip, settings, window, source_fallback)
    corner_l2 = np.array(
        [l2_error_nm2(z, target, cfg) for z in resists]
    )
    corner_epe = np.array(
        [epe_report(z, clip.rects, cfg).violations for z in resists]
    )
    # The corner-loss matrix comes straight from the resist stack the
    # judge already imaged — no second condition-axis pass.
    matrix = ((resists - target[None]) ** 2).sum(axis=(-2, -1))[:, None]
    final_weights = None
    if result.history and result.history[-1].corner_weights is not None:
        final_weights = np.asarray(result.history[-1].corner_weights)
    # The robust column is reduced under the *settings'* regime so rows
    # judged with one settings object stay comparable: only an
    # explicitly adaptive judging uses a run's trained final weights
    # (they ride the record either way for inspection).
    judge_weights = final_weights if settings.robust == "adaptive" else None
    robust = float(
        robust_tile_losses(
            matrix, window, settings.robust, settings.robust_tau,
            weights=judge_weights,
        )[0]
    )
    return ProcessWindowRecord(
        method=result.method,
        dataset="",
        clip=clip.name,
        corner_labels=window.labels,
        corner_loss=matrix[:, 0],
        corner_l2_nm2=corner_l2,
        corner_epe=corner_epe,
        band_nm2=pvb_band_nm2(resists, cfg),
        robust_loss=robust,
        corner_thresholds=tuple(window.intensity_thresholds(cfg)),
        corner_weights=final_weights,
    )


# One process-window cell: (method, dataset_name, clip) — a plain tuple
# so cells pickle cleanly if sharded over a pool.
_PWCell = Tuple[str, str, Clip]


def _run_pw_cell(
    cell: _PWCell, settings: RunSettings
) -> List[ProcessWindowRecord]:
    """Execute one (method, clip) process-window cell."""
    fault_point("harness.run_cell")
    method, dataset_name, clip = cell
    cfg = settings.config
    with obs.cell_scope(f"{dataset_name}/{clip.name}/{method}"):
        target = _target_image(clip, cfg)
        source = _annular_source(cfg)
        start = time.perf_counter()
        result = _dispatch(method, settings, target, source)
        runtime = time.perf_counter() - start
        rec = evaluate_process_window(
            result, clip, settings, source_fallback=source
        )
        rec.method = method
        rec.dataset = dataset_name
        rec.runtime_s = runtime
        rec.losses = result.losses
        return [rec]


def _pw_failure_records(cell: _PWCell) -> List[ProcessWindowRecord]:
    method, dataset_name, clip = cell
    nan = math.nan
    return [
        ProcessWindowRecord(
            method=method,
            dataset=dataset_name,
            clip=clip.name,
            corner_labels=(),
            corner_loss=np.empty(0),
            corner_l2_nm2=np.empty(0),
            corner_epe=np.empty(0, dtype=np.int64),
            band_nm2=nan,
            robust_loss=nan,
            runtime_s=nan,
        )
    ]


def run_process_window(
    methods: Sequence[str],
    clips: Sequence[Clip],
    settings: RunSettings,
    dataset_name: str = "",
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    cell_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    progress: Optional[Any] = None,
    workers: int = 1,
) -> List[ProcessWindowRecord]:
    """Run each (method, clip) cell robustly and judge the full window.

    ``settings.process_window`` must be set: every solver optimizes the
    robust objective across it, and the report judges the same corners.

    The cells run through the same sweep driver as
    :func:`repro.harness.run_matrix`, serial or parallel: completed cells
    are journaled as they finish when ``checkpoint`` is set and skipped
    on a resumed run, and retries follow the same taxonomy, so a cell
    that raises is retried and then recorded as a ``status="failed"``
    record (``max_retries=0`` keeps a single attempt).  ``workers > 1``
    shards cells across processes — same warm cache, worker-budget
    split, and obs-config forwarding — and records come back in the
    serial order.
    """
    if settings.process_window is None:
        raise ValueError("run_process_window needs settings.process_window")
    cells: List[_PWCell] = [
        (method, dataset_name, clip) for clip in clips for method in methods
    ]
    return _run_sweep(
        cells,
        [f"{ds}/{clip.name}/{method}" for method, ds, clip in cells],
        _run_pw_cell,
        ProcessWindowRecord,
        _pw_failure_records,
        settings,
        workers=workers,
        checkpoint=checkpoint,
        cell_timeout=cell_timeout,
        max_retries=max_retries,
        progress=progress,
    )


def process_window_table(
    records: Sequence[ProcessWindowRecord], value: str = "l2"
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
