"""The repository benchmark: four SMO workloads, one command.

Run one workload (this is what ``BENCHMARK.json``'s command does)::

    python3 smobench/run.py --workload bismo-joint --seed 1 --seconds 20 --trace 0

or every workload, untraced and traced, one subprocess each::

    python3 smobench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with no wrapper
installed: rounds of cold set-ups (median ``setup_s``) and one whole
solve, as many as fit in ``--seconds`` at the pace so far and at least
two, so every run also checks that one seed reproduces its numbers
bitwise.  ``--trace 1`` alternates an untraced and a traced pass and
reports the per-layer metrics of the traced ones, plus a self-time tree
of the solve.  The metric names and
units come from ``BENCHMARK.json``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check prints the reason on standard
error and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
#: Cold set-ups before every untraced solve; ``setup_s`` is their median.
SETUPS_PER_SOLVE = 5
#: Sweep pool size: the box's cores, at most two.
SWEEP_WORKERS = 2
HARNESS_KEYS = (
    "harness.cells", "harness.retries", "harness.failures", "harness.warmup_s", "harness.busy_ratio",
)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """High-water resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class WorkloadRun:
    """One workload run: its checks, counts and measured numbers."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        import workloads as W

        self.W = W
        self.wl = W.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.workers = min(SWEEP_WORKERS, nproc())
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def time_left(self, start: float, done: int) -> bool:
        """Whether one more round, at the mean pace so far, still ends
        within ``--seconds`` of ``start``."""
        spent = time.perf_counter() - start
        return spent + spent / done <= self.seconds

    # -- checks ----------------------------------------------------------
    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.failures:
            self.failures.append(message)

    def account(self, out: Any, prep: Any) -> None:
        """Count the units of one solve and check their outputs."""
        W = self.W
        units = len(out.losses)
        bad = 0
        for i, trace in enumerate(out.losses):
            ok = len(trace) > 0 and W.finite(trace)
            if out.status:
                ok = ok and out.status[i] == "ok"
            bad += not ok
        self.attempted += units
        self.failed += bad
        self.check(units > 0, "the solve produced no loss trace")
        self.check(bad == 0, f"{bad} of {units} solves failed or were not finite")
        self.check(
            all(W.finite(list(q.values())) for q in out.quality),
            "a judge metric is not finite",
        )
        if self.wl.kind == "sweep":
            got = list(zip(out.methods, out.clips))
            self.check(
                got == W.expected_sweep_order(prep),
                "sweep records are not in submission order",
            )
        else:
            trace = out.losses[0]
            self.check(
                len(trace) > 1 and trace[-1] < trace[0],
                "the final loss is not below the first loss",
            )

    def check_same(self, a: Any, b: Any, what: str) -> None:
        """Loss traces bitwise equal (SOCS sweep cells: to SOCS_RTOL) and
        judge metrics equal."""
        W = self.W
        same = len(a.losses) == len(b.losses)
        for i, (x, y) in enumerate(zip(a.losses, b.losses)):
            if a.methods and a.methods[i] in W.SOCS_METHODS:
                same = same and x.shape == y.shape and bool(
                    np.allclose(x, y, rtol=W.SOCS_RTOL, atol=0.0)
                )
            else:
                same = same and x.shape == y.shape and x.tobytes() == y.tobytes()
        self.check(same, f"{what}: loss traces differ")
        self.check(a.quality == b.quality, f"{what}: judge metrics differ")

    # -- untraced: end-to-end metrics -------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        from repro.optics import cache

        W, wl = self.W, self.wl
        dataset = W.inputs(wl, self.seed)
        setup_s: List[float] = []
        solves: List[Tuple[float, Any]] = []
        ref: Dict[str, Dict[str, float]] = {}
        start = time.perf_counter()
        while len(solves) < 2 or self.time_left(start, len(solves)):
            # Cold set-ups spread over the whole run, the last one solves.
            for _ in range(SETUPS_PER_SOLVE):
                cache.clear()
                t0 = time.perf_counter()
                prep = W.setup(wl, dataset)
                setup_s.append(time.perf_counter() - t0)
            ref = ref or W.reference(prep)
            t0 = time.perf_counter()
            out = W.solve(prep, workers=self.workers)
            solve_s = time.perf_counter() - t0
            W.judge(prep, out)
            self.account(out, prep)
            if solves:
                self.check_same(solves[0][1], out, "a repeated solve with one seed")
            solves.append((solve_s, out))
        if wl.kind == "sweep":
            # cells differ widely in cost: mean seconds per iteration
            iters = sum(out.solver_s for _, out in solves)
            count = sum(len(t) for _, out in solves for t in out.losses)
            iter_s, iter_note = iters / count, f"mean over {count} cell iterations"
        else:
            samples = [s for _, out in solves for s in out.iter_s]
            iter_s, iter_note = statistics.median(samples), f"median of {len(samples)} iterations"
        quality = W.quality_summary(solves[0][1], ref)
        self.notes += [
            f"setup_s: median of {len(setup_s)} cold set-ups",
            f"solve_s: median of {len(solves)} solves: "
            + " ".join(f"{s:.4f}" for s, _ in solves),
            f"iter_s: {iter_note}",
            "quality: " + ", ".join(f"{k}={v:.6g}" for k, v in quality.items()),
        ]
        return {
            "setup_s": statistics.median(setup_s),
            "solve_s": statistics.median(s for s, _ in solves),
            "iter_s": iter_s,
            "peak_rss_mb": peak_rss_mb(),
        }

    # -- traced: per-layer metrics ------------------------------------------
    def _untraced_pass(self, dataset: Any) -> Tuple[Any, Dict[str, float]]:
        """One plain pass; a sweep also runs it with repro.obs on, for the
        harness numbers of its process pool."""
        from repro import obs
        from repro.optics import cache

        W = self.W
        cache.clear()
        prep = W.setup(self.wl, dataset)
        if self.wl.kind != "sweep":
            out = W.solve(prep)
            W.judge(prep, out)
            return (prep, out), dict.fromkeys(HARNESS_KEYS, 0.0)
        with tempfile.TemporaryDirectory(prefix=".smobench-", dir=ROOT) as tmp:
            obs.reset_metrics()
            with obs.use(trace=True, metrics=True, shard_dir=tmp):
                t0 = time.perf_counter()
                out = W.solve(prep, workers=self.workers)
                wall = time.perf_counter() - t0
                parent = obs.values()
            merged = obs.merge_shards(obs.discover_shards(tmp), [])
        counters = merged["otherData"]["metrics"]
        warm = [ev["dur"] for ev in merged["traceEvents"] if ev.get("name") == "harness.warmup"]
        harness = {
            "harness.cells": float(counters.get("harness.cells", 0)),
            "harness.retries": float(parent.get("harness.retries", 0)),
            "harness.failures": float(parent.get("harness.failures", 0)),
            "harness.warmup_s": sum(warm) / 1e6,
            "harness.busy_ratio": sum(out.cell_s) / (self.workers * wall),
        }
        obs.reset_metrics()
        return (prep, out), harness

    def per_layer(self) -> Dict[str, float]:
        from layers import Tracer, attribute, layer_metrics, render_tree, root_of
        from repro.optics import cache

        W, wl = self.W, self.wl
        dataset = W.inputs(wl, self.seed)
        runs: List[Dict[str, float]] = []
        plain_s: List[float] = []
        traced_s: List[float] = []
        tree = ""
        ref = W.reference(W.setup(wl, dataset))
        if wl.kind != "sweep":
            # One short warm-up solve, so the first untraced pass does not
            # pay the process's one-off costs that its traced twin skips.
            W.solve(W.setup(wl, dataset), iterations=1)
        start = time.perf_counter()
        while not runs or self.time_left(start, len(runs)):
            (prep, out_u), harness = self._untraced_pass(dataset)
            self.account(out_u, prep)
            cache.clear()
            stats0 = cache.stats()
            with Tracer() as tracer:
                with tracer.span("setup"):
                    prep = W.setup(wl, dataset)
                with tracer.span("solve"):
                    out_t = W.solve(prep)
                with tracer.span("judge"):
                    W.judge(prep, out_t)
            stats1 = cache.stats()
            self.account(out_t, prep)
            self.check_same(out_u, out_t, "the traced pass vs the untraced pass")
            spans = tracer.spans
            attribute(spans)
            root = next(s for s in spans if s.name == "solve" and s.parent is None)
            subtree = sum(s.self_s for s in spans if root_of(s) is root)
            self.check(
                abs(subtree - (root.t1 - root.t0)) <= 1e-6 * (root.t1 - root.t0),
                "self times of the solve tree do not add up to solve_s",
            )
            m = layer_metrics(spans, root)
            hits = sum(v["hits"] for v in stats1.values()) - sum(v["hits"] for v in stats0.values())
            misses = sum(v["misses"] for v in stats1.values()) - sum(v["misses"] for v in stats0.values())
            m.update({"cache.hits": hits, "cache.misses": misses})
            m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            m.update(harness)
            m.update({"judge." + k: v for k, v in W.quality_summary(out_t, ref).items()})
            runs.append(m)
            plain_s.append(out_u.solver_s)
            traced_s.append(out_t.solver_s)
            tree = render_tree(root, spans)
            if tracer.missing:
                self.notes.append("not traced (absent): " + ", ".join(tracer.missing))
        metrics: Dict[str, float] = {}
        for key in sorted({k for m in runs for k in m}):
            metrics[key] = statistics.median(m.get(key, 0.0) for m in runs)
        metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        if wl.first_order:
            second = sum(metrics.get(k, 0.0) for k in ("smo.hvp_calls", "smo.mixed_vjp_calls", "autodiff.grad_cg_calls"))
            self.check(second == 0, "a first-order workload ran a second-order oracle")
        self.notes.append(f"per-layer: median of {len(runs)} traced passes; self-time tree of the last one:")
        self.notes.append(tree)
        return metrics


def emit(spec_metrics: List[Dict[str, Any]], values: Dict[str, float], bench: WorkloadRun) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for entry in spec_metrics:
        name = entry["name"]
        value = values.get(name)
        if value is None or value != value:
            bench.check(False, f"metric {name} was not measured")
            continue
        out[name] = {"value": float(value), "unit": entry["unit"]}
    return out


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    from repro.optics import backend, fftlib

    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    n = nproc()
    with fftlib.use(workers=n, budget=n, condition_workers=n):
        env = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": n,
            "fftlib": fftlib.describe(),
            "backend": backend.describe(),
        }
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        bench = WorkloadRun(args.workload, args.seed, args.seconds)
        if args.trace:
            values, listed = bench.per_layer(), spec["per_layer"]
        else:
            values, listed = bench.end_to_end(), spec["end_to_end"]
    metrics = emit(listed, values, bench)
    print(f"== {args.workload} seed={args.seed} trace={args.trace} ==")
    for name, entry in metrics.items():
        print(f"{name:<28}{entry['value']:>18.6g} {entry['unit']}")
    for note in bench.notes:
        print(note)
    for failure in bench.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print("checks: " + ("all passed" if not bench.failures else f"{len(bench.failures)} failed"))
    result = {
        "correct": not bench.failures,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not bench.failures else 1


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    summary: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            try:
                last = json.loads(lines[-1])
            except (ValueError, IndexError):
                correct = False
                continue
            correct = correct and bool(last["correct"])
            attempted += int(last["attempted"])
            failed += int(last["failed"])
            for name, entry in last["metrics"].items():
                summary[f"{workload}/{name}"] = entry
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": summary}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
