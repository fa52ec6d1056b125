"""Experiment runner: (method x clip) -> metric records.

This is the engine behind every table/figure reproduction: it rasterizes
a benchmark clip, runs one of the eight evaluated methods under a common
iteration budget, evaluates the final (source, mask) pair under the
*lossless Abbe* model (the common judge, as in the paper's evaluation),
and returns L2 / PVB / EPE / runtime records.

Two scale axes on top of the per-cell engine:

* **Joint multi-clip mode** (:func:`run_joint`, ``run_matrix(...,
  joint=True)``) — one solve per (method, dataset) optimizing a shared
  source against the whole clip stack through the fused batched forward,
  then judging every tile separately.
* **Process-parallel sweeps** (``run_matrix(..., workers=N)``) — the
  (method x clip) cells are sharded over a ``ProcessPoolExecutor``.
  Workers warm the optics cache once at start-up, every cell is a pure
  function of (method, clip, settings), and records are collected in
  submission order, so a parallel sweep returns the records in exactly
  the serial order with identical numeric content.

Every sweep, serial or parallel, runs through the fault-tolerant
executor of :mod:`repro.harness.resilience`: a dead worker costs a pool
rebuild and a resubmission, not the sweep; a deterministic solver
failure becomes a structured ``status="failed"`` record instead of an
abort; and ``run_matrix(..., checkpoint=path)`` journals completed
cells so an interrupted sweep resumes where it crashed with
byte-identical record order.  Because cells are pure, retried and
resumed cells reproduce their records bitwise.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines import MultiLevelILT, NILTBaseline
from ..layouts import Clip, Dataset, tile_stack
from ..metrics import epe_report, l2_error_nm2, pvb_nm2
from ..optics import OpticalConfig, ProcessWindow, SourceGrid, annular
from ..smo import (
    AMSMO,
    AbbeMO,
    BiSMO,
    HopkinsMO,
    ProcessWindowSMOObjective,
    SMOResult,
    init_theta_source,
)
from .. import obs
from ..utils.faultinject import fault_point
from .resilience import CellProgress, RetryPolicy, execute_cells

__all__ = [
    "RunRecord",
    "RunSettings",
    "METHOD_ORDER",
    "run_clip",
    "run_joint",
    "run_matrix",
    "batched_objective",
]

#: Column order of Table 3 (left to right).
METHOD_ORDER = (
    "NILT",
    "DAC23-MILT",
    "Abbe-MO",
    "AM-SMO(Abbe-Hopkins)",
    "AM-SMO(Abbe-Abbe)",
    "BiSMO-FD",
    "BiSMO-CG",
    "BiSMO-NMN",
)


@dataclass(frozen=True)
class RunSettings:
    """Common experimental knobs shared by a whole table/figure run."""

    config: OpticalConfig
    iterations: int = 30
    lr: float = 0.1
    optimizer: str = "adam"
    num_kernels: Optional[int] = None  # None -> config.socs_terms
    unroll_steps: int = 3
    terms: int = 5
    cg_damping: float = 1.0
    #: Optional robust dose x aberration condition axis: when set, every
    #: dispatched solver optimizes the robust corner loss across it —
    #: the window's corners may carry arbitrary Zernike pupil
    #: aberrations and per-corner resist thresholds — and the
    #: process-window report judges the same corners.  ``robust`` picks
    #: the reduction (``"sum"`` / ``"max"`` / ``"adaptive"`` minimax
    #: ascent); ``robust_tau`` is the LSE temperature or EG rate.
    process_window: Optional["ProcessWindow"] = None
    robust: str = "sum"
    robust_tau: float = 1.0

    @classmethod
    def preset(cls, scale: str = "default", **overrides) -> "RunSettings":
        return cls(config=OpticalConfig.preset(scale), **overrides)


@dataclass
class RunRecord:
    """One (method, clip) evaluation.

    ``status`` is ``"ok"`` for a completed evaluation; a cell that
    exhausted its retry budget is recorded as ``"failed"`` (solver
    exception, details in ``error``) or ``"timeout"`` with NaN metrics,
    so one broken cell no longer aborts a whole sweep.  ``attempts``
    counts executions of the cell (1 = first try succeeded).  Table
    builders skip non-``"ok"`` records.
    """

    method: str
    dataset: str
    clip: str
    l2_nm2: float
    pvb_nm2: float
    epe_violations: int
    epe_mean_nm: float
    runtime_s: float
    final_loss: float
    losses: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    status: str = "ok"
    error: str = ""
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> Dict[str, Any]:
        """Plain-``json`` form for the checkpoint journal.

        Python's ``json`` writes doubles via ``repr``, so every float —
        the loss trace included — revives bitwise in
        :meth:`from_json`.
        """
        return {
            "method": self.method,
            "dataset": self.dataset,
            "clip": self.clip,
            "l2_nm2": self.l2_nm2,
            "pvb_nm2": self.pvb_nm2,
            "epe_violations": self.epe_violations,
            "epe_mean_nm": self.epe_mean_nm,
            "runtime_s": self.runtime_s,
            "final_loss": self.final_loss,
            "losses": np.asarray(self.losses, dtype=np.float64).tolist(),
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(
            method=str(data["method"]),
            dataset=str(data["dataset"]),
            clip=str(data["clip"]),
            l2_nm2=float(data["l2_nm2"]),
            pvb_nm2=float(data["pvb_nm2"]),
            epe_violations=int(data["epe_violations"]),
            epe_mean_nm=float(data["epe_mean_nm"]),
            runtime_s=float(data["runtime_s"]),
            final_loss=float(data["final_loss"]),
            losses=np.asarray(data["losses"], dtype=np.float64),
            status=str(data.get("status", "ok")),
            error=str(data.get("error", "")),
            attempts=int(data.get("attempts", 1)),
        )


def _target_image(clip: Clip, config: OpticalConfig) -> np.ndarray:
    return tile_stack([clip], config)[0]


def batched_objective(
    clips: Sequence[Clip], settings: RunSettings
) -> ProcessWindowSMOObjective:
    """SMO objective over a clip suite's tile stack, sharing the cached
    engine.

    One objective, one ``(B, N, N)`` target stack, one fused forward per
    loss evaluation — the harness entry point for multi-tile runs.
    """
    targets = tile_stack(clips, settings.config)
    return ProcessWindowSMOObjective(settings.config, targets)


def _annular_source(config: OpticalConfig) -> np.ndarray:
    grid = SourceGrid.from_config(config)
    return annular(grid, config.sigma_out, config.sigma_in)


def _dispatch(
    method: str, settings: RunSettings, target: np.ndarray, source: np.ndarray
) -> SMOResult:
    cfg = settings.config
    iters = settings.iterations
    common = dict(lr=settings.lr, optimizer=settings.optimizer)
    robust = dict(
        process_window=settings.process_window,
        robust=settings.robust,
        robust_tau=settings.robust_tau,
    )
    if method == "NILT":
        return NILTBaseline(
            cfg, target, source, num_kernels=settings.num_kernels,
            **common, **robust,
        ).run(iterations=iters)
    if method == "DAC23-MILT":
        return MultiLevelILT(
            cfg, target, source, num_kernels=settings.num_kernels,
            **common, **robust,
        ).run(iterations=iters)
    if method == "Abbe-MO":
        return AbbeMO(cfg, target, source, **common, **robust).run(
            iterations=iters
        )
    if method == "Hopkins-MO":
        return HopkinsMO(
            cfg, target, source, num_kernels=settings.num_kernels,
            **common, **robust,
        ).run(iterations=iters)
    if method.startswith("AM-SMO"):
        mode = "abbe-hopkins" if "Hopkins" in method else "abbe-abbe"
        # Budget normalization: every method gets the same number of MASK
        # updates (the quantity that dominates final quality).  AM-SMO
        # additionally spends SO steps and TCC rebuilds per round — the
        # alternation overhead that Table 4 charges to its TAT.
        so_steps, mo_steps = 5, 10
        rounds = max(1, iters // mo_steps)
        return AMSMO(
            cfg,
            target,
            mode=mode,
            rounds=rounds,
            so_steps=so_steps,
            mo_steps=mo_steps,
            lr_so=settings.lr,
            lr_mo=settings.lr,
            mo_optimizer=settings.optimizer,
            num_kernels=settings.num_kernels,
            **robust,
        ).run(source)
    if method.startswith("BiSMO"):
        kind = method.split("-", 1)[1].lower()
        return BiSMO(
            cfg,
            target,
            method=kind,
            unroll_steps=settings.unroll_steps,
            terms=settings.terms,
            inner_lr=settings.lr,
            outer_lr=settings.lr,
            outer_optimizer=settings.optimizer,
            damping=settings.cg_damping if kind == "cg" else 0.0,
            **robust,
        ).run(source, iterations=iters)
    raise KeyError(f"unknown method {method!r}")


def evaluate_final(
    result: SMOResult,
    clip: Clip,
    settings: RunSettings,
    source_fallback: Optional[np.ndarray] = None,
    objective: Optional[ProcessWindowSMOObjective] = None,
    binary_mask: bool = True,
) -> Dict[str, float]:
    """Judge a finished run's (mask, source) under the lossless Abbe model.

    ``binary_mask=True`` hard-thresholds the optimized mask before the
    judging simulation: manufactured masks are binary (Section 3.1), so
    metrics are reported for the manufacturable mask, not the sigmoid
    relaxation.
    """
    cfg = settings.config
    target = _target_image(clip, cfg)
    # The default judge engine comes from the optics cache: one pupil
    # stack for every evaluation in a sweep, however many objectives exist.
    objective = objective or ProcessWindowSMOObjective(cfg, target)
    theta_j = result.theta_j
    if theta_j is None:
        src = source_fallback if source_fallback is not None else _annular_source(cfg)
        theta_j = init_theta_source(src, cfg)
    theta_m = result.theta_m
    if binary_mask:
        # +/-1e3 drives the sigmoid to exactly 0/1 in float64.
        theta_m = np.where(theta_m >= 0.0, 1e3, -1e3)
    images = objective.images(theta_j, theta_m)
    l2 = l2_error_nm2(images["resist"], target, cfg)
    pvb = pvb_nm2(images["resist_min"], images["resist_max"], cfg)
    epe = epe_report(images["resist"], clip.rects, cfg)
    return {
        "l2_nm2": l2,
        "pvb_nm2": pvb,
        "epe_violations": epe.violations,
        "epe_mean_nm": epe.mean_abs_nm,
    }


def run_clip(
    method: str,
    clip: Clip,
    settings: RunSettings,
    dataset_name: str = "",
    objective: Optional[ProcessWindowSMOObjective] = None,
) -> RunRecord:
    """Run one method on one clip and evaluate all paper metrics."""
    cfg = settings.config
    target = _target_image(clip, cfg)
    source = _annular_source(cfg)
    start = time.perf_counter()
    result = _dispatch(method, settings, target, source)
    runtime = time.perf_counter() - start
    metrics = evaluate_final(result, clip, settings, source, objective)
    return RunRecord(
        method=method,
        dataset=dataset_name,
        clip=clip.name,
        l2_nm2=metrics["l2_nm2"],
        pvb_nm2=metrics["pvb_nm2"],
        epe_violations=int(metrics["epe_violations"]),
        epe_mean_nm=metrics["epe_mean_nm"],
        runtime_s=runtime,
        final_loss=result.final_loss,
        losses=result.losses,
    )


def run_joint(
    method: str,
    clips: Sequence[Clip],
    settings: RunSettings,
    dataset_name: str = "",
) -> List[RunRecord]:
    """Jointly optimize one method over a whole clip suite.

    One solve: a shared source (``theta_J``) against the ``(B, N, N)``
    tile stack (per-clip ``theta_M``), evaluated through the engines'
    fused batched forward.  Every clip still gets its own
    :class:`RunRecord` — metrics come from judging that tile's final
    (mask, source) under the lossless Abbe model, the loss trace is the
    solver's per-tile loss history, and ``runtime_s`` is the joint
    wall-clock amortized over the batch (the per-clip share).
    """
    cfg = settings.config
    clips = list(clips)
    targets = tile_stack(clips, cfg)
    source = _annular_source(cfg)
    start = time.perf_counter()
    result = _dispatch(method, settings, targets, source)
    runtime = time.perf_counter() - start
    try:
        tile_matrix: Optional[np.ndarray] = result.tile_loss_matrix()  # (T, B)
    except ValueError:
        tile_matrix = None
    records: List[RunRecord] = []
    for i, clip in enumerate(clips):
        theta_m = result.theta_m[i] if result.theta_m.ndim == 3 else result.theta_m
        tile_result = SMOResult(
            method=result.method,
            theta_m=theta_m,
            theta_j=result.theta_j,
            history=result.history,
            runtime_seconds=result.runtime_seconds,
        )
        metrics = evaluate_final(tile_result, clip, settings, source)
        losses = tile_matrix[:, i] if tile_matrix is not None else result.losses
        records.append(
            RunRecord(
                method=method,
                dataset=dataset_name,
                clip=clip.name,
                l2_nm2=metrics["l2_nm2"],
                pvb_nm2=metrics["pvb_nm2"],
                epe_violations=int(metrics["epe_violations"]),
                epe_mean_nm=metrics["epe_mean_nm"],
                runtime_s=runtime / len(clips),
                final_loss=float(losses[-1]),
                losses=losses,
            )
        )
    return records


# One sweep cell: ("clip", method, dataset_name, clip) or
# ("joint", method, dataset_name, (clip, ...)).  Plain tuples so cells
# pickle cleanly across the process pool.
_Cell = Tuple[str, str, str, object]


def _cell_label(cell: _Cell) -> str:
    kind, method, ds_name, payload = cell
    if kind == "joint":
        return f"{ds_name}/joint[{len(payload)}]/{method}"
    return f"{ds_name}/{payload.name}/{method}"


def _run_cell(cell: _Cell, settings: RunSettings) -> List[RunRecord]:
    """Execute one sweep cell (also the process-pool task body)."""
    fault_point("harness.run_cell")
    kind, method, ds_name, payload = cell
    with obs.cell_scope(_cell_label(cell)):
        if kind == "joint":
            return run_joint(method, list(payload), settings, ds_name)
        return [run_clip(method, payload, settings, ds_name)]


def _cell_clip_names(cell: _Cell) -> List[str]:
    """Clip names a cell's records will carry (one per record)."""
    kind, _method, _ds_name, payload = cell
    if kind == "joint":
        return [clip.name for clip in payload]
    return [payload.name]


def _failure_records(cell: _Cell) -> List[RunRecord]:
    """Structured NaN-metric records for a cell that exhausted retries
    (the executor writes their status, attempts and error)."""
    _kind, method, ds_name, _payload = cell
    nan = math.nan
    return [
        RunRecord(
            method=method,
            dataset=ds_name,
            clip=clip_name,
            l2_nm2=nan,
            pvb_nm2=nan,
            epe_violations=0,
            epe_mean_nm=nan,
            runtime_s=nan,
            final_loss=nan,
            losses=np.empty(0),
        )
        for clip_name in _cell_clip_names(cell)
    ]


def _worker_warmup(
    config: OpticalConfig,
    worker_budget: Optional[int] = None,
    process_window: Optional[ProcessWindow] = None,
    obs_config: Optional[Dict[str, Any]] = None,
) -> None:
    """Process-pool initializer: pre-build the shared optics cache and
    hand each worker its share of the unified thread budget.

    With N worker processes each defaulting to one pocketfft thread per
    CPU, a sharded sweep would oversubscribe every core N-fold; the
    parent hands each worker ``cpu // N`` as its *budget*, and
    :mod:`repro.optics.fftlib` splits that between condition-axis
    threads and per-FFT pocketfft threads (``condition_workers x
    per-FFT workers <= budget``).  Results are bitwise identical for
    any split, so the sweep's byte-identical-records guarantee is
    unaffected.
    """
    fault_point("harness.worker_warmup")
    from ..optics import cache, fftlib

    if obs_config is not None:
        # The parent's tracing/metrics switches don't survive the fork/
        # spawn boundary as module state; re-apply them so every worker
        # writes its own telemetry shard for the parent to merge.
        obs.restore_config(obs_config)
    if worker_budget is not None:
        fftlib.set_worker_budget(worker_budget)
    cache.warmup(config, process_window=process_window)
    # Park the warmup spans in a dedicated shard record; otherwise they
    # would be swept into this worker's first cell and break the
    # worker-count-invariant canonical trace.
    obs.flush_shard()


def _run_sweep(
    cells: Sequence[Any],
    labels: Sequence[str],
    run_one: Callable[..., List[Any]],
    record_type: Any,
    failure: Callable[[Any], List[Any]],
    settings: RunSettings,
    *,
    workers: int,
    checkpoint: Optional[Union[str, os.PathLike]],
    cell_timeout: Optional[float],
    max_retries: Optional[int],
    progress: Optional[Callable[[CellProgress], None]],
) -> List[Any]:
    """The one harness sweep driver: run ``cells`` through
    :func:`~repro.harness.resilience.execute_cells` and flatten the
    outcomes into records, in submission order.

    ``run_one(cell, settings=...)`` is a module-level cell body (a pool
    pickles it).  ``workers > 1`` shards the cells over a process pool
    whose workers split the thread budget and warm the optics cache once
    (:func:`_worker_warmup`); ``workers=1`` runs them in this process.
    Either way a cell that raises is retried under ``max_retries``
    (``None``: ``REPRO_MAX_RETRIES``) and then stands as its
    ``failure(cell)`` records.
    """
    worker_budget = max(1, (os.cpu_count() or 1) // max(1, workers))

    def pool_factory() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_warmup,
            initargs=(
                settings.config,
                worker_budget,
                settings.process_window,
                obs.export_config(),
            ),
        )

    policy = None if max_retries is None else RetryPolicy(max_retries=max_retries)
    outcomes = execute_cells(
        cells,
        labels,
        partial(run_one, settings=settings),
        record_type,
        failure,
        workers=workers,
        pool_factory=pool_factory if workers > 1 else None,
        policy=policy,
        cell_timeout=cell_timeout,
        checkpoint=checkpoint,
        progress=progress,
    )
    return [rec for outcome in outcomes for rec in outcome.records]


def _matrix_cells(
    datasets: Sequence[Dataset],
    methods: Sequence[str],
    clips_per_dataset: Optional[int],
    joint: bool,
) -> List[_Cell]:
    cells: List[_Cell] = []
    for ds in datasets:
        clips = list(ds)[: clips_per_dataset or len(ds)]
        if joint:
            for method in methods:
                cells.append(("joint", method, ds.name, tuple(clips)))
        else:
            for clip in clips:
                for method in methods:
                    cells.append(("clip", method, ds.name, clip))
    return cells


def run_matrix(
    datasets: Sequence[Dataset],
    settings: RunSettings,
    methods: Sequence[str] = METHOD_ORDER,
    clips_per_dataset: Optional[int] = None,
    progress: Optional[Callable[[CellProgress], None]] = None,
    workers: int = 1,
    joint: bool = False,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    cell_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> List[RunRecord]:
    """Full (method x dataset x clip) sweep — the shared input of
    Table 3 and Table 4.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (default) runs in-process;
        ``N > 1`` shards the cells over a ``ProcessPoolExecutor`` whose
        workers warm the optics cache once at start-up.  Record order
        and numeric content are identical to the serial sweep (cells are
        deterministic and reassembled in submission order); only
        wall-clock timing fields differ run-to-run.  Dead workers are
        replaced and their cells resubmitted.
    joint:
        Optimize each dataset's clips jointly (one shared source per
        (method, dataset) cell, see :func:`run_joint`) instead of one
        solve per clip.
    checkpoint:
        Path of a JSONL checkpoint journal.  Completed cells are
        appended as their futures finish; re-running with the same path
        skips them and reproduces the full record list in the original
        order, byte-identical to an uninterrupted run.
    cell_timeout:
        Per-cell wall-clock budget in seconds (parallel sweeps only; an
        in-process cell cannot be preempted).  ``None`` defers to
        ``REPRO_CELL_TIMEOUT``; ``0`` disables.
    max_retries:
        Per-cell retry budget for transient faults.  ``None`` defers to
        ``REPRO_MAX_RETRIES`` (default 2).  Deterministic solver
        exceptions always fail fast after at most one retry.

    Every sweep, serial or parallel, runs its cells through the
    fault-tolerant executor: a cell that raises is retried under the
    ``max_retries`` budget and then recorded as a ``status="failed"``
    record with NaN metrics, so one broken cell never aborts the sweep
    (``max_retries=0`` keeps a single attempt).

    ``progress`` receives structured
    :class:`~repro.harness.resilience.CellProgress` events — a
    ``"start"`` when a cell begins and a terminal event carrying the
    measured wall seconds and attempt count when it ends (``str(event)``
    renders the printable line).
    """
    cells = _matrix_cells(datasets, methods, clips_per_dataset, joint)
    return _run_sweep(
        cells,
        [_cell_label(cell) for cell in cells],
        _run_cell,
        RunRecord,
        _failure_records,
        settings,
        workers=workers,
        checkpoint=checkpoint,
        cell_timeout=cell_timeout,
        max_retries=max_retries,
        progress=progress,
    )
