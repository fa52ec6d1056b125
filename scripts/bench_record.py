#!/usr/bin/env python3
"""Record smobench runs of a parent revision against the working tree.

Record, appending one entry per workload to ``BENCH_smobench.json``::

    python3 scripts/bench_record.py --parent HEAD --workload bismo-joint --seed 1

Print every entry in that file, and the verdicts pooled over the
entries that measured the same code::

    python3 scripts/bench_record.py --compare

The parent side is ``REV``'s committed files, extracted with ``git
archive`` into a temporary directory that is removed on exit, also on
error; the change side is the working tree.  Each of 10 pairs runs
``BENCHMARK.json``'s command with ``--workload W --seed S --seconds
<run_seconds> --trace 0`` once on each side, alternating which side
runs first, and one ``--trace 1`` run per side then gives the per-layer
metrics.  The run length is ``BENCHMARK.json``'s ``run_seconds`` on
both sides.  For more pairs, record again: ``--compare`` pools the
entries of one workload and seed whose parent revision and change code
are the same.  The change code is the git tree hash of ``CODE_PATHS``
in the working tree, untracked files included, so it names the code
that ran whether or not it was committed; for a clean checkout it
equals ``git ls-tree HEAD BENCHMARK.json smobench src | git mktree``.

Per end-to-end metric an entry holds each side's median, quartiles
(``statistics.quantiles``, as the smobench README measures its noise)
and raw values, the change/parent ratio of the medians, and the pairs
the change wins (ties count for neither).  The verdict is:

* ``gain`` only when at least 10 pairs ran, the change wins at least 9
  of every 10 of them, and its median beats the parent's by more than
  the parent's interquartile range;
* ``regression`` when the change's median is worse than the parent's
  by more than the metric's ``BENCHMARK.json`` bound;
* ``unresolved`` when either side's interquartile range, relative to
  its median, exceeds that bound, unless every run of the change reads
  better than every run of the parent;
* ``within bound`` otherwise.

An entry whose runs cannot be compared fairly carries the reason in
``refused`` and no verdicts: a run printed no JSON or ``"correct":
false``, or the two sides have different run counts.  A pool is refused
when any of its entries is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
RECORD = ROOT / "BENCH_smobench.json"
SIDES = ("parent", "change")
#: A run still going after this many seconds counts as printing no JSON.
RUN_TIMEOUT_S = 900
#: Pairs per recorded entry, and the fewest a gain may rest on.
PAIRS = 10
#: What the benchmark command runs: the change code is their git tree.
CODE_PATHS = ("BENCHMARK.json", "smobench", "src")


# -- aggregation (pure: no subprocess, no clock) ---------------------------
def parse_run(
    stdout: str, returncode: Optional[int] = 0, first: bool = False
) -> Dict[str, Any]:
    """One run from its standard output, whose last line is smobench's
    result JSON; ``json`` is False when that line is missing or broken."""
    run: Dict[str, Any] = {
        "first": first, "returncode": returncode, "json": False,
        "correct": False, "attempted": None, "failed": None, "metrics": {},
    }
    lines = stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
        metrics = {k: float(v["value"]) for k, v in last["metrics"].items()}
        attempted, failed = int(last["attempted"]), int(last["failed"])
    except (ValueError, TypeError, KeyError):
        return run
    run.update(
        json=True, correct=last.get("correct") is True,
        attempted=attempted, failed=failed, metrics=metrics,
    )
    return run


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare_metric(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """Both sides' quartiles, the ratio of medians, the change's wins over
    paired runs and the verdict (module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ratio = cq[1] / pq[1]
    dominates = all(sign * (p - c) > 0 for p in parent for c in change)
    spread = max((q[2] - q[0]) / q[1] for q in (pq, cq))
    if sign * (ratio - 1.0) > bound:
        verdict = "regression"
    elif (
        len(parent) >= PAIRS
        and 10 * wins >= 9 * len(parent)
        and sign * (pq[1] - cq[1]) > pq[2] - pq[0]
    ):
        verdict = "gain"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "within bound"

    def side(q: Tuple[float, float, float], values: Sequence[float]) -> Dict[str, Any]:
        return {"median": q[1], "q1": q[0], "q3": q[2], "values": list(values)}

    return {
        "parent": side(pq, parent), "change": side(cq, change),
        "ratio": ratio, "wins": wins, "pairs": len(parent), "verdict": verdict,
    }


def refusal(entry: Dict[str, Any], names: Sequence[str]) -> Optional[str]:
    """Why the entry's runs cannot be compared fairly, or None."""
    runs = entry["runs"]
    if len(runs["parent"]) != len(runs["change"]):
        return (
            f"the parent has {len(runs['parent'])} timed runs and the "
            f"change {len(runs['change'])}"
        )
    for side in SIDES:
        labelled = [(f"run {i + 1}", run) for i, run in enumerate(runs[side])]
        labelled.append(("the traced run", entry["traced"][side]))
        for label, run in labelled:
            if not run["json"]:
                return (
                    f"{label} of the {side} printed no JSON "
                    f"(exit code {run['returncode']})"
                )
            if not run["correct"]:
                return f"{label} of the {side} printed correct: false"
        for i, run in enumerate(runs[side]):
            missing = [n for n in names if n not in run["metrics"]]
            if missing:
                return f"run {i + 1} of the {side} reported no {missing[0]}"
    return None


def summarize(entry: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """``entry`` with ``refused`` and ``end_to_end`` derived from its raw
    runs under ``spec`` (``BENCHMARK.json``)."""
    out = dict(entry)
    metrics = spec["end_to_end"]
    out["refused"] = refusal(entry, [m["name"] for m in metrics])
    out["end_to_end"] = {}
    if out["refused"] is None:
        for m in metrics:
            name = m["name"]
            vals = [[r["metrics"][name] for r in entry["runs"][s]] for s in SIDES]
            out["end_to_end"][name] = dict(
                compare_metric(vals[0], vals[1], m["better"], m["bound"]),
                unit=m["unit"], bound=m["bound"],
            )
    return out


def _num(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def _ratio(parent: Optional[float], change: Optional[float]) -> str:
    if parent is None or change is None:
        return "not measured"
    if parent == 0:
        return "equal" if change == 0 else "parent 0"
    return f"{change / parent:.3f}x of parent"


def format_entry(entry: Dict[str, Any]) -> List[str]:
    """The entry as text: every ratio with its base, the wins k/P and the
    verdict, then, for one recorded entry, the traced per-layer metrics."""
    change = entry["change"]
    code = change.get("code")
    pooled = f" in {entry['batches']} entries" if "batches" in entry else ""
    lines = [
        f"{entry['workload']} seed {entry['seed']}: {entry['pairs']} pairs"
        f"{pooled} of {entry['run_seconds']} s runs; parent "
        f"{entry['parent']['rev'][:10]}, change {change['rev'][:10]}"
        f"{' (dirty)' if change['dirty'] else ''}, code "
        f"{code[:10] if code else 'not recorded'}; nproc {entry['nproc']}; "
        f"{entry['timestamp']}"
    ]
    if entry["refused"] is not None:
        return lines + [f"  refused: {entry['refused']}"]
    for name, m in entry["end_to_end"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"  {name:<12} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f" -> change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"{m['unit']}: {m['ratio']:.3f}x of parent, wins "
            f"{m['wins']}/{m['pairs']}: {m['verdict']} (bound {m['bound']})"
        )
    for side in SIDES:
        runs = entry["runs"][side]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"  {side}: {failed} of {attempted} operations failed")
    if pooled:
        return lines
    lines.append("  per-layer, one traced run per side:")
    parent, change = (entry["traced"][s]["metrics"] for s in SIDES)
    for name in dict.fromkeys([*parent, *change]):
        p, c = parent.get(name), change.get(name)
        lines.append(f"    {name:<26} {_num(p):>12} -> {_num(c):<12} {_ratio(p, c)}")
    return lines


def groups(entries: Sequence[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    """``entries`` grouped by workload, seed, run length, parent revision
    and change code, in first-seen order.  An entry without a code
    (recorded before entries carried one) stands alone."""
    out: Dict[Any, List[Dict[str, Any]]] = {}
    for i, entry in enumerate(entries):
        code = entry["change"].get("code")
        key = (
            entry["workload"], entry["seed"], entry["run_seconds"],
            entry["parent"]["rev"], code,
        ) if code else i
        out.setdefault(key, []).append(entry)
    return list(out.values())


def pool(group: Sequence[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    """One summarized entry over every pair of ``group``'s entries,
    refused when any of them is; its header fields are the last entry's."""
    raw = dict(group[-1])
    raw.update(
        runs={s: [r for e in group for r in e["runs"][s]] for s in SIDES},
        pairs=sum(e["pairs"] for e in group),
        batches=len(group),
        timestamp=f"{group[0]['timestamp']} to {group[-1]['timestamp']}",
    )
    for i, entry in enumerate(group):
        reason = summarize(entry, spec)["refused"]
        if reason is not None:
            return dict(raw, refused=f"entry {i + 1}: {reason}", end_to_end={})
    return summarize(raw, spec)


def report(entries: Sequence[Dict[str, Any]], spec: Dict[str, Any]) -> List[str]:
    """Every entry with its own verdicts, each group of two or more
    followed by the verdicts over all of its pairs."""
    lines: List[str] = []
    for group in groups(entries):
        for entry in group:
            lines += format_entry(summarize(entry, spec))
        if len(group) > 1:
            lines += format_entry(pool(group, spec))
    return lines


# -- running ---------------------------------------------------------------
def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _git(
    *args: str, root: Path = ROOT, env: Optional[Dict[str, str]] = None,
    stdin: Optional[str] = None,
) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], input=stdin, capture_output=True,
        text=True, check=True, env=env,
    ).stdout.strip()


def code_id(root: Path = ROOT) -> str:
    """The git tree hash of ``CODE_PATHS`` in the working tree at
    ``root``, untracked files included.  It is built in a scratch index,
    so the repository's own index is left alone."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("read-tree", "HEAD", root=root, env=env)
        _git("add", "--all", "--", *CODE_PATHS, root=root, env=env)
        tree = _git("write-tree", root=root, env=env)
    listing = _git("ls-tree", tree, "--", *CODE_PATHS, root=root)
    return _git("mktree", root=root, stdin=listing + "\n")


def export(rev: str, dest: Path) -> None:
    """``rev``'s committed files into ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def bench_run(
    root: Path, spec: Dict[str, Any], workload: str, seed: int, trace: int,
    first: bool = False,
) -> Dict[str, Any]:
    """One benchmark run in the checkout at ``root``."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return parse_run("", None, first)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return parse_run(proc.stdout, proc.returncode, first)


def record(
    rev: str, workloads: Sequence[str], seed: int, spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Run, summarize and append one entry per workload."""
    parent_rev = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    change_rev = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain"))
    code = code_id()
    entries = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(parent_rev, Path(tmp))
        roots = {"parent": Path(tmp), "change": ROOT}
        for workload in workloads:
            runs: Dict[str, List[Dict[str, Any]]] = {s: [] for s in SIDES}
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = bench_run(roots[side], spec, workload, seed, 0, side == order[0])
                    runs[side].append(run)
                    print(
                        f"{workload} seed {seed} pair {i + 1}/{PAIRS} {side}: "
                        f"solve_s {run['metrics'].get('solve_s')} "
                        f"correct {run['correct']}",
                        file=sys.stderr, flush=True,
                    )
            traced = {s: bench_run(roots[s], spec, workload, seed, 1) for s in SIDES}
            if code_id() != code:
                raise SystemExit(
                    f"the code under {', '.join(CODE_PATHS)} changed while "
                    f"{workload} ran; its entry is not written"
                )
            entry = summarize(
                {
                    "workload": workload, "seed": seed, "pairs": PAIRS,
                    "run_seconds": spec["run_seconds"],
                    "parent": {"rev": parent_rev, "dirty": False},
                    "change": {"rev": change_rev, "dirty": dirty, "code": code},
                    "nproc": _nproc(),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "timestamp": datetime.now(timezone.utc).strftime(
                        "%Y-%m-%dT%H:%M:%SZ"
                    ),
                    "runs": runs,
                    "traced": traced,
                },
                spec,
            )
            # Written per workload, so an interrupted recording keeps the
            # entries it finished.
            book = load_record()
            book["runs"].append(entry)
            RECORD.write_text(json.dumps(book, indent=1) + "\n", encoding="utf-8")
            print("\n".join(format_entry(entry)), flush=True)
            entries.append(entry)
    return entries


def load_record() -> Dict[str, Any]:
    if not RECORD.is_file():
        return {"name": "smobench", "runs": []}
    return json.loads(RECORD.read_text(encoding="utf-8"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", metavar="REV", help="record against this revision")
    mode.add_argument(
        "--compare", action="store_true",
        help="print every recorded entry, then each pool of entries of the same code",
    )
    parser.add_argument(
        "--workload", nargs="+", default=["all"],
        help="workload names from BENCHMARK.json, or 'all' (the default)",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == ["all"] else args.workload
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.compare:
        entries = [e for e in load_record()["runs"] if e["workload"] in workloads]
        print("\n".join(report(entries, spec)))
        return 0
    entries = record(args.parent, workloads, args.seed, spec)
    return 0 if all(e["refused"] is None for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
