"""Command-line entry point: regenerate any paper table or figure.

Examples::

    bismo table3 --scale small --clips 2 --iterations 20
    bismo table3 --scale small --clips 2 --workers 4
    bismo table4 --scale default --clips 2 --joint
    bismo fig3 --dataset ICCAD13 --steps 100
    bismo fig5 --dataset ICCAD13 --clips 3
    bismo pwindow --pw-focus 0 40 --pw-aberrations Z5=20 Z7=-15 \
        --robust adaptive
    bismo all --out results/
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional

from ..layouts import dataset_by_name, DATASET_NAMES
from ..optics import OpticalConfig, ProcessWindow
from .figures import figure3_series, figure5_stats
from .process_window import process_window_table
from .report import (
    ascii_plot,
    render_series,
    render_table,
    sweep_health,
    table_to_csv,
)
from .runner import METHOD_ORDER, RunSettings, run_matrix
from .tables import table3, table4

__all__ = ["main", "build_parser"]


def _aberration_spec(text: str) -> dict:
    """argparse type for --pw-aberrations: parse or fail cleanly."""
    from ..optics import parse_aberration_spec

    try:
        return parse_aberration_spec(text)
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int(text: str) -> int:
    """argparse type for --clips, --iterations and --steps: a count of
    at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1; got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bismo",
        description="Regenerate BiSMO (DAC'24) tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", default="small", help="optical preset: small/default/paper")
        p.add_argument(
            "--clips", type=_positive_int, default=2, help="clips per dataset"
        )
        p.add_argument("--iterations", type=_positive_int, default=30)
        p.add_argument("--lr", type=float, default=0.1)
        p.add_argument("--out", type=Path, default=None, help="directory for CSV output")
        p.add_argument(
            "--methods",
            nargs="*",
            default=None,
            help=f"subset of methods (default: all of {', '.join(METHOD_ORDER)})",
        )
        p.add_argument(
            "--trace",
            type=Path,
            default=None,
            metavar="PATH",
            help="enable span tracing and write a merged Chrome "
            "trace-event JSON (loadable in Perfetto / chrome://tracing) "
            "to PATH after the run; parallel sweeps merge per-worker "
            "shards deterministically",
        )
        p.add_argument(
            "--metrics",
            action="store_true",
            help="enable the obs metrics registry and print a text "
            "summary (counters, cache hit rates, FFT counts) to stderr "
            "after the run; for parallel sweeps the merged per-worker "
            "totals ride the --trace file's otherData.metrics",
        )

    def resilience(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--resume",
            type=Path,
            default=None,
            metavar="JOURNAL",
            help="JSONL checkpoint journal: completed cells are appended "
            "as they finish and skipped when re-running with the same "
            "path, so an interrupted sweep resumes where it crashed; a "
            "journal of other cells or settings is refused",
        )
        p.add_argument(
            "--cell-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-cell wall-clock budget (default: REPRO_CELL_TIMEOUT; "
            "0 disables; enforced for parallel sweeps only)",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=None,
            metavar="N",
            help="per-cell retry budget for transient faults (default: "
            "REPRO_MAX_RETRIES or 2; a deterministic error gets at most "
            "one retry, 0 keeps a single attempt)",
        )

    for name in ("table3", "table4", "tables", "all"):
        p = sub.add_parser(name)
        common(p)
        resilience(p)
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for the sweep (records stay in serial "
            "order with identical numeric content)",
        )
        p.add_argument(
            "--joint",
            action="store_true",
            help="jointly optimize each dataset's clips with one shared "
            "source (batched multi-clip SMO) instead of per-clip solves",
        )

    p3 = sub.add_parser("fig3")
    common(p3)
    p3.add_argument("--dataset", default="ICCAD13", choices=list(DATASET_NAMES))
    p3.add_argument("--steps", type=_positive_int, default=100)
    p3.add_argument("--clip-index", type=int, default=0)

    p5 = sub.add_parser("fig5")
    common(p5)
    p5.add_argument("--dataset", default="ICCAD13", choices=list(DATASET_NAMES))

    pw = sub.add_parser(
        "pwindow",
        help="robust process-window run + per-corner report",
        description="Optimize selected methods robustly across a dose x "
        "focus corner grid and report per-corner L2/EPE plus the "
        "window-wide variation band.",
    )
    common(pw)
    resilience(pw)
    pw.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (records stay in serial "
        "order with identical numeric content)",
    )
    pw.add_argument("--dataset", default="ICCAD13", choices=list(DATASET_NAMES))
    pw.add_argument(
        "--pw-doses",
        type=float,
        nargs="+",
        default=[0.98, 1.0, 1.02],
        help="dose corner factors (default: %(default)s)",
    )
    pw.add_argument(
        "--pw-focus",
        type=float,
        nargs="+",
        default=[0.0],
        help="focus corners in nm (default: %(default)s); each distinct "
        "value costs one imaging pass, dose corners are free",
    )
    pw.add_argument(
        "--pw-aberrations",
        nargs="*",
        default=[],
        metavar="SPEC",
        type=_aberration_spec,
        help="extra pupil-aberration conditions, each a comma-separated "
        "Zernike spec like 'Z5=20,Z7=-10' (coefficients in nm; Z4 = "
        "wafer defocus).  Each spec is one more imaging pass crossed "
        "with every dose corner, on top of the --pw-focus conditions",
    )
    pw.add_argument(
        "--robust",
        choices=["sum", "max", "adaptive"],
        default="sum",
        help="corner reduction: weighted sum, smooth worst-case "
        "(log-sum-exp), or adaptive minimax corner reweighting "
        "(exponentiated-gradient ascent on the corner weights)",
    )
    pw.add_argument(
        "--tau",
        type=float,
        default=1.0,
        help="log-sum-exp temperature for --robust max (loss units), or "
        "the ascent rate for --robust adaptive",
    )

    return parser


def _settings(args: argparse.Namespace, iterations: Optional[int] = None) -> RunSettings:
    return RunSettings.preset(
        args.scale, iterations=iterations or args.iterations, lr=args.lr
    )


def _scale_problem(scale: str) -> Optional[str]:
    """Why ``--scale`` cannot image the built-in clips, or None: every
    command rasterizes them, so the preset's tile must be theirs."""
    clip_tiles = {dataset_by_name(n, num_clips=1).style.tile_nm for n in DATASET_NAMES}
    runnable = [n for n in OpticalConfig.PRESETS if {OpticalConfig.preset(n).tile_nm} == clip_tiles]
    if scale in runnable:
        return None
    if scale in OpticalConfig.PRESETS:
        why = (
            f"preset {scale!r} images a {OpticalConfig.preset(scale).tile_nm:g} nm "
            f"tile, but the built-in clips use "
            f"{' / '.join(f'{t:g}' for t in sorted(clip_tiles))} nm tiles"
        )
    else:
        why = f"unknown preset {scale!r}"
    return f"--scale: {why}; use one of: {', '.join(runnable)}"


def _datasets(args: argparse.Namespace):
    return [dataset_by_name(n, num_clips=args.clips) for n in DATASET_NAMES]


@contextlib.contextmanager
def _obs_session(
    args: argparse.Namespace, cell_labels: List[str]
) -> Iterator[None]:
    """Enable :mod:`repro.obs` for the duration of one CLI command.

    ``--trace PATH`` turns on span tracing with a temporary shard
    directory; on exit the per-process shards are merged — in the
    submission order captured by *cell_labels* (filled from the
    ``"start"`` progress events as the command runs) — into one Chrome
    trace-event JSON at PATH.  Commands that never enter a harness cell
    (fig3/fig5) produce no shards and fall back to exporting the
    in-process event buffer.  ``--metrics`` prints the parent registry's
    text summary to stderr.
    """
    trace_path: Optional[Path] = getattr(args, "trace", None)
    want_metrics = bool(getattr(args, "metrics", False))
    if trace_path is None and not want_metrics:
        yield
        return
    from .. import obs

    with tempfile.TemporaryDirectory(prefix="repro-obs-") as tmp:
        with obs.use(
            trace=trace_path is not None,
            metrics=True,
            shard_dir=tmp if trace_path is not None else None,
        ):
            yield
            if trace_path is not None:
                shards = obs.discover_shards(tmp)
                if shards:
                    trace = obs.merge_shards(shards, cell_labels)
                else:
                    trace = obs.chrome_trace(
                        obs.drain_events(), metrics=obs.values()
                    )
                trace_path.parent.mkdir(parents=True, exist_ok=True)
                trace_path.write_text(
                    json.dumps(trace, sort_keys=True), encoding="utf-8"
                )
                print(
                    f"[obs] wrote Chrome trace to {trace_path}",
                    file=sys.stderr,
                )
            if want_metrics:
                print(obs.summary_table(obs.snapshot()), file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if problem := _scale_problem(args.scale):
        parser.error(problem)
    out_dir: Optional[Path] = getattr(args, "out", None)
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    cell_labels: List[str] = []

    def progress(event: object) -> None:
        if getattr(event, "status", None) == "start" and getattr(
            event, "label", ""
        ):
            cell_labels.append(str(event.label))
        print(f"[run] {event}", file=sys.stderr)

    with _obs_session(args, cell_labels):
        return _run_command(args, out_dir, progress)


def _report_health(records: List) -> bool:
    """Print the sweep-health table to stderr when any cell failed, before
    any result table; False when no record is ok (nothing to tabulate)."""
    if any(not rec.ok for rec in records):
        print(render_table(sweep_health(records)), file=sys.stderr)
    if any(rec.ok for rec in records):
        return True
    print("[run] no ok records: no table to render", file=sys.stderr)
    return False


def _run_command(
    args: argparse.Namespace,
    out_dir: Optional[Path],
    progress,
) -> int:
    if args.command in ("table3", "table4", "tables", "all"):
        settings = _settings(args)
        methods = args.methods or METHOD_ORDER
        records = run_matrix(
            _datasets(args),
            settings,
            methods=methods,
            clips_per_dataset=args.clips,
            progress=progress,
            workers=args.workers,
            joint=args.joint,
            checkpoint=args.resume,
            cell_timeout=args.cell_timeout,
            max_retries=args.max_retries,
        )
        if not _report_health(records):
            return 1
        if args.command in ("table3", "tables", "all"):
            t3 = table3(records)
            print(render_table(t3))
            if out_dir:
                table_to_csv(t3, out_dir / "table3.csv")
        if args.command in ("table4", "tables", "all"):
            t4 = table4(records)
            print(render_table(t4))
            if out_dir:
                table_to_csv(t4, out_dir / "table4.csv")
        return 0

    if args.command == "pwindow":
        window = ProcessWindow.from_grid(
            args.pw_doses,
            args.pw_focus,
            aberrations=args.pw_aberrations,
        )
        settings = dataclasses.replace(
            _settings(args),
            process_window=window,
            robust=args.robust,
            robust_tau=args.tau,
        )
        records = run_matrix(
            [dataset_by_name(args.dataset, num_clips=args.clips)],
            settings,
            methods=args.methods or ["Abbe-MO", "BiSMO-NMN"],
            progress=progress,
            workers=args.workers,
            checkpoint=args.resume,
            cell_timeout=args.cell_timeout,
            max_retries=args.max_retries,
        )
        if not _report_health(records):
            return 1
        for value in ("l2", "epe"):
            table = process_window_table(records, value=value)
            print(render_table(table))
            print()
            if out_dir:
                table_to_csv(table, out_dir / f"pwindow_{value}.csv")
        return 0

    if args.command == "fig3":
        ds = dataset_by_name(args.dataset, num_clips=max(args.clip_index + 1, args.clips))
        clip = ds[args.clip_index]
        settings = _settings(args, iterations=args.steps)
        settings = RunSettings(
            config=settings.config, iterations=args.steps, lr=0.01
        )
        series = figure3_series(clip, settings, dataset_name=ds.name)
        print(ascii_plot(series))
        if out_dir:
            (out_dir / "fig3.csv").write_text(render_series(series))
        return 0

    if args.command == "fig5":
        ds = dataset_by_name(args.dataset, num_clips=args.clips)
        settings = _settings(args, iterations=60)
        stats = figure5_stats(ds, settings, clips=args.clips)
        for method, data in stats.items():
            mean = ", ".join(f"{v:.1f}" for v in data["mean"][:10])
            std = ", ".join(f"{v:.1f}" for v in data["std"][:10])
            print(f"{method}: mean[{mean} ...] std[{std} ...]")
        if out_dir:
            import csv

            with open(out_dir / "fig5.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["method", "step", "mean", "std"])
                for method, data in stats.items():
                    for s, m, d in zip(data["steps"], data["mean"], data["std"]):
                        writer.writerow([method, int(s), float(m), float(d)])
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
