"""The four SMO workloads of the benchmark and their set-up/solve/judge steps.

Every workload draws synthetic ICCAD13 clips from
``dataset_by_name("ICCAD13", num_clips=..., seed=<seed>)``; the solvers
only ever see the rasterized targets.  Library calls go through module
attributes (``layouts.tile_stack``, ``runner.evaluate_final``) so the
tracer in :mod:`layers` can wrap them from outside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import layouts
from repro.harness import runner
from repro.layouts import Dataset, dataset_by_name
from repro.optics import OpticalConfig, ProcessWindow, SourceGrid, annular, cache
from repro.smo import AbbeMO, BiSMO, SMOResult, init_theta_mask, init_theta_source

QUALITY_KEYS = ("l2_nm2", "pvb_nm2", "epe_violations")

#: Sweep methods whose SOCS kernels come from an ARPACK eigensolve
#: (``scipy.sparse.linalg.eigsh`` with a random start vector), so two
#: decompositions of one TCC agree to ~1e-15, not bitwise.  Their loss
#: traces are compared with :data:`SOCS_RTOL` instead of bit for bit.
SOCS_METHODS = ("NILT", "DAC23-MILT", "AM-SMO(Abbe-Hopkins)")
SOCS_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One named workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    kind: str  # "bismo" | "mo" | "sweep"
    preset: str
    tiles: int
    iterations: int
    lr: float = 0.1
    doses: Tuple[float, ...] = ()
    focus_nm: Tuple[float, ...] = ()
    #: A first-order workload must run no second-order oracle at all.
    first_order: bool = False


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("bismo-joint", "bismo", "default", tiles=4, iterations=3),
        Workload(
            "bismo-pwindow", "bismo", "small", tiles=2, iterations=6,
            doses=(0.96, 1.0, 1.04), focus_nm=(0.0, 40.0, 80.0),
        ),
        # A mask step of 0.3 flips binarized pixels within 10 iterations;
        # at 0.1 the judged mask would still equal the target.
        Workload("mo-imaging", "mo", "default", tiles=8, iterations=10, lr=0.3, first_order=True),
        Workload("table-sweep", "sweep", "small", tiles=2, iterations=10),
    )
}


@dataclass
class Prepared:
    """A ready-to-solve workload: rasterized targets, warm caches, solver."""

    workload: Workload
    dataset: Dataset
    config: OpticalConfig
    targets: np.ndarray
    source: np.ndarray
    window: Optional[ProcessWindow]
    settings: runner.RunSettings
    solver: Any = None


@dataclass
class Outcome:
    """What one solve (or one whole sweep) produced."""

    #: One loss trace per solve unit: the joint solve, or each sweep record.
    losses: List[np.ndarray]
    #: Per-unit judge metrics of the binarized final mask and source.
    quality: List[Dict[str, float]] = field(default_factory=list)
    #: Clip name of each unit (several units may share a clip in a sweep).
    clips: List[str] = field(default_factory=list)
    #: Seconds per outer iteration, from the benchmark's callback.
    iter_s: List[float] = field(default_factory=list)
    #: Solver-only seconds (a sweep sums its records' runtimes).
    solver_s: float = 0.0
    #: Sweep only: method and status of every record, wall seconds of
    #: every finished cell.
    methods: List[str] = field(default_factory=list)
    status: List[str] = field(default_factory=list)
    cell_s: List[float] = field(default_factory=list)
    result: Optional[SMOResult] = None


def inputs(wl: Workload, seed: int) -> Dataset:
    """The seeded synthetic clips of one run (the benchmark's only input)."""
    return dataset_by_name("ICCAD13", num_clips=wl.tiles, seed=seed)


def setup(wl: Workload, dataset: Dataset) -> Prepared:
    """Rasterize, build engines and optics caches, construct the solver."""
    cfg = OpticalConfig.preset(wl.preset)
    window = ProcessWindow.from_grid(wl.doses, wl.focus_nm) if wl.doses else None
    targets = layouts.tile_stack(list(dataset), cfg)
    cache.warmup(cfg, process_window=window)
    source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
    settings = runner.RunSettings(
        config=cfg, iterations=wl.iterations, lr=wl.lr, process_window=window
    )
    prep = Prepared(wl, dataset, cfg, targets, source, window, settings)
    if wl.kind == "sweep":
        # The Hopkins baselines image through SOCS kernels of the annular
        # source: decompose once here, like every other cache fill.
        cache.hopkins_engine(cfg, source)
    elif wl.kind == "bismo":
        prep.solver = BiSMO(
            cfg, targets, method="nmn", inner_lr=0.1, outer_lr=wl.lr,
            process_window=window, robust="sum",
        )
    elif wl.kind == "mo":
        prep.solver = AbbeMO(cfg, targets, source, lr=wl.lr)
    return prep


def expected_sweep_order(prep: Prepared) -> List[Tuple[str, str]]:
    """(method, clip) of every sweep record in submission order."""
    return [(m, clip.name) for clip in prep.dataset for m in runner.METHOD_ORDER]


def solve(prep: Prepared, workers: int = 1, iterations: Optional[int] = None) -> Outcome:
    """Run the timed part of the workload once (``iterations`` overrides
    the single-solve budget, for warm-up solves)."""
    wl = prep.workload
    iterations = iterations or wl.iterations
    if wl.kind == "sweep":
        cell_s: List[float] = []

        def on_cell(event: Any) -> None:
            if event.terminal:
                cell_s.append(float(event.seconds or 0.0))

        records = runner.run_matrix(
            [prep.dataset], prep.settings, methods=runner.METHOD_ORDER,
            clips_per_dataset=wl.tiles, workers=workers, progress=on_cell,
        )
        return Outcome(
            losses=[np.asarray(r.losses, dtype=np.float64) for r in records],
            quality=[{k: float(getattr(r, k)) for k in QUALITY_KEYS} for r in records],
            clips=[r.clip for r in records],
            solver_s=float(sum(r.runtime_s for r in records)),
            methods=[r.method for r in records],
            status=[r.status for r in records],
            cell_s=cell_s,
        )
    marks = [time.perf_counter()]

    def on_iter(_record: Any) -> None:
        marks.append(time.perf_counter())

    if wl.kind == "bismo":
        result = prep.solver.run(prep.source, iterations=iterations, callback=on_iter)
    else:
        result = prep.solver.run(iterations=iterations, callback=on_iter)
    return Outcome(
        losses=[result.losses],
        clips=[clip.name for clip in prep.dataset],
        iter_s=[float(d) for d in np.diff(marks)],
        solver_s=float(result.runtime_seconds),
        result=result,
    )


def _judge_tiles(prep: Prepared, theta_m: np.ndarray, theta_j: np.ndarray) -> List[Dict[str, float]]:
    out = []
    for i, clip in enumerate(prep.dataset):
        tile = SMOResult(method="", theta_m=theta_m[i], theta_j=theta_j)
        metrics = runner.evaluate_final(tile, clip, prep.settings, prep.source)
        out.append({k: float(metrics[k]) for k in QUALITY_KEYS})
    return out


def judge(prep: Prepared, outcome: Outcome) -> None:
    """Judge a single solve's final tiles (sweep cells judge themselves)."""
    if outcome.result is not None:
        res = outcome.result
        outcome.quality = _judge_tiles(prep, res.theta_m, res.theta_j)


def reference(prep: Prepared) -> Dict[str, Dict[str, float]]:
    """Judge metrics of the unoptimized start (target as mask, annular
    source), per clip: the base of the quality ratios."""
    theta_m = np.stack([init_theta_mask(t, prep.config) for t in prep.targets])
    theta_j = init_theta_source(prep.source, prep.config)
    tiles = _judge_tiles(prep, theta_m, theta_j)
    return {clip.name: q for clip, q in zip(prep.dataset, tiles)}


def quality_summary(outcome: Outcome, ref: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Ratios to the unoptimized start, plus the raw means they come from."""
    out: Dict[str, float] = {
        "loss_ratio": float(np.mean([t[-1] / t[0] for t in outcome.losses])),
        "final_loss": float(np.mean([t[-1] for t in outcome.losses])),
    }
    for key in QUALITY_KEYS:
        final = [q[key] for q in outcome.quality]
        base = [ref[clip][key] for clip in outcome.clips]
        out[key] = float(np.mean(final))
        out[key.split("_")[0] + "_ratio"] = float(np.sum(final) / np.sum(base))
    return out


def finite(values: Sequence[float]) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))
