"""Exporters: JSONL shards, Chrome trace-event JSON, text summary.

Worker processes append one JSON line per harness cell to a
``shard-<pid>.jsonl`` file in the configured shard directory (see
``repro.obs.cell_scope``); each line carries the cell label, the
producing PID, the span events completed during the cell, and the
cell's metric delta.  The parent merges the shards into a single
Chrome trace-event JSON (loadable in ``chrome://tracing`` / Perfetto)
deterministically: cells are emitted in submission order, PIDs are
normalized to worker indices in order of first appearance, and every
shard's timestamps are rebased to that process's first event.

:func:`canonical_trace` strips the volatile fields (timestamps,
durations, process/thread lanes, memory peaks) and sorts events within
each cell, so a workers=1 and a workers=2 run of the same sweep yield
byte-identical canonical forms — the determinism contract the harness
tests pin.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 1

# Span attributes that legitimately differ run-to-run (timing/memory).
_VOLATILE_ARG_KEYS = ("mem_peak_kb", "seconds")

#: Reserved shard label for pre-cell worker warmup records (see
#: ``repro.obs.flush_shard``).  One record per worker process; shown in
#: the merged trace, excluded from the canonical form because its count
#: tracks the worker count rather than the sweep.
WARMUP_LABEL = "@warmup"


def shard_path(directory: str, pid: int) -> str:
    """Canonical shard filename for a producing process."""
    return os.path.join(directory, f"shard-{pid}.jsonl")


def write_shard(
    path: str,
    label: str,
    events: Sequence[Dict[str, Any]],
    metrics: Dict[str, Any],
) -> None:
    """Append one cell record to a per-process shard file."""
    record = {
        "schema": SCHEMA_VERSION,
        "label": label,
        "pid": os.getpid(),
        "events": list(events),
        "metrics": metrics,
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_shards(paths: Iterable[str]) -> List[Dict[str, Any]]:
    """Load every record from the given shard files, in file order."""
    records: List[Dict[str, Any]] = []
    for path in sorted(paths):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records


def discover_shards(directory: str) -> List[str]:
    """Shard files present in *directory*, sorted for determinism."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(
        os.path.join(directory, n)
        for n in names
        if n.startswith("shard-") and n.endswith(".jsonl")
    )


def merge_shards(
    shard_paths: Iterable[str],
    labels: Sequence[str],
) -> Dict[str, Any]:
    """Merge per-process shards into one Chrome trace-event object.

    *labels* is the sweep's submission order; it drives both cell order
    in the output and the PID -> worker-index normalization.  When a
    label appears in several records (a retried cell), the last record
    in shard-file order wins.  Labels with no record (failed before
    tracing) are listed in ``otherData.missing``.  ``@warmup`` records
    (one per worker, see ``repro.obs.flush_shard``) keep one entry per
    producing process and contribute no metrics.
    """
    records = read_shards(shard_paths)
    by_label: Dict[str, Dict[str, Any]] = {}
    warmups: List[Dict[str, Any]] = []
    for rec in records:
        if str(rec.get("label")) == WARMUP_LABEL:
            warmups.append(rec)
        else:
            by_label[str(rec.get("label"))] = rec

    ordered = [lbl for lbl in labels if lbl in by_label]
    extras = [lbl for lbl in by_label if lbl not in set(labels)]
    ordered.extend(sorted(extras))
    missing = [lbl for lbl in labels if lbl not in by_label]

    pid_index: Dict[int, int] = {}
    pid_base_ts: Dict[int, float] = {}
    # Cell submission order assigns the worker lanes; warmup records
    # only widen a lane's timestamp base (warmup precedes every cell)
    # or claim a lane for a worker that never ran a cell.
    for source in ([by_label[lbl] for lbl in ordered], warmups):
        for rec in source:
            pid = int(rec.get("pid", 0))
            if pid not in pid_index:
                pid_index[pid] = len(pid_index)
            for ev in rec.get("events", []):
                ts = float(ev.get("ts", 0.0))
                base = pid_base_ts.get(pid)
                if base is None or ts < base:
                    pid_base_ts[pid] = ts

    trace_events: List[Dict[str, Any]] = []
    for pid, idx in pid_index.items():
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": idx,
                "tid": 0,
                "args": {"name": f"worker-{idx}"},
            }
        )

    tid_index: Dict[Tuple[int, int], int] = {}

    def emit(rec: Dict[str, Any], lbl: str) -> None:
        pid = int(rec.get("pid", 0))
        base = pid_base_ts.get(pid, 0.0)
        for ev in rec.get("events", []):
            raw_tid = int(ev.get("tid", 0))
            key = (pid, raw_tid)
            if key not in tid_index:
                tid_index[key] = len([k for k in tid_index if k[0] == pid])
            args = dict(ev.get("args", {}))
            args["cell"] = lbl
            if ev.get("parent"):
                args["parent"] = ev["parent"]
            if ev.get("error"):
                args["error"] = ev["error"]
            trace_events.append(
                {
                    "name": ev.get("name", "?"),
                    "cat": ev.get("cat", "span"),
                    "ph": "X",
                    "ts": round((float(ev.get("ts", 0.0)) - base) * 1e6, 3),
                    "dur": round(float(ev.get("dur", 0.0)) * 1e6, 3),
                    "pid": pid_index[pid],
                    "tid": tid_index[key],
                    "args": args,
                }
            )

    for rec in warmups:
        emit(rec, WARMUP_LABEL)
    for lbl in ordered:
        emit(by_label[lbl], lbl)

    merged_metrics = _merged_metrics(by_label, ordered)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": SCHEMA_VERSION,
            "labels": list(ordered),
            "missing": missing,
            "workers": len(pid_index),
            "warmups": len(warmups),
            "metrics": merged_metrics,
        },
    }


def _merged_metrics(
    by_label: Dict[str, Dict[str, Any]], ordered: Sequence[str]
) -> Dict[str, Any]:
    from .metrics import merge_metric_snapshots

    snaps = [
        by_label[lbl].get("metrics", {})
        for lbl in ordered
        if isinstance(by_label[lbl].get("metrics"), dict)
    ]
    return merge_metric_snapshots(snaps)


def chrome_trace(
    events: Sequence[Dict[str, Any]],
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Chrome trace-event object for one in-process event buffer.

    The single-process counterpart of :func:`merge_shards`, for
    programmatic ``obs.use()`` sessions that never touch shard files.
    """
    base = min((float(ev.get("ts", 0.0)) for ev in events), default=0.0)
    tid_index: Dict[int, int] = {}
    out: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "main"},
        }
    ]
    for ev in events:
        raw_tid = int(ev.get("tid", 0))
        if raw_tid not in tid_index:
            tid_index[raw_tid] = len(tid_index)
        args = dict(ev.get("args", {}))
        if ev.get("parent"):
            args["parent"] = ev["parent"]
        if ev.get("error"):
            args["error"] = ev["error"]
        out.append(
            {
                "name": ev.get("name", "?"),
                "cat": ev.get("cat", "span"),
                "ph": "X",
                "ts": round((float(ev.get("ts", 0.0)) - base) * 1e6, 3),
                "dur": round(float(ev.get("dur", 0.0)) * 1e6, 3),
                "pid": 0,
                "tid": tid_index[raw_tid],
                "args": args,
            }
        )
    other: Dict[str, Any] = {"schema": SCHEMA_VERSION}
    if metrics is not None:
        other["metrics"] = metrics
    return {"traceEvents": out, "displayTimeUnit": "ms", "otherData": other}


def canonical_trace(trace: Dict[str, Any]) -> Dict[str, Any]:
    """Reduce a merged trace to its run-invariant canonical form.

    Drops timestamps, durations, process/thread lanes, and volatile
    attributes, then groups events by cell and sorts them by
    (name, serialized args).  Two runs of the same sweep — regardless
    of worker count or thread interleaving — must produce identical
    canonical forms; ``tests/test_obs_harness.py`` pins this.
    """
    cells: Dict[str, List[Dict[str, Any]]] = {}
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        cell = str(args.pop("cell", ""))
        if cell == WARMUP_LABEL:
            continue  # one record per worker: not sweep-invariant
        for key in _VOLATILE_ARG_KEYS:
            args.pop(key, None)
        cells.setdefault(cell, []).append(
            {"name": ev.get("name"), "cat": ev.get("cat"), "args": args}
        )
    for evs in cells.values():
        evs.sort(key=lambda e: (str(e["name"]), json.dumps(e["args"], sort_keys=True)))
    other = trace.get("otherData", {})
    return {
        "schema": other.get("schema", SCHEMA_VERSION),
        "labels": other.get("labels", sorted(cells)),
        "cells": cells,
    }


def canonical_trace_bytes(trace: Dict[str, Any]) -> bytes:
    """Stable byte serialization of :func:`canonical_trace`."""
    return json.dumps(canonical_trace(trace), sort_keys=True).encode("utf-8")


def summary_table(snap: Dict[str, Any]) -> str:
    """Fixed-width text rendering of a :func:`metrics.snapshot` dict."""
    lines: List[str] = []

    def section(title: str, rows: List[Tuple[str, str]]) -> None:
        if not rows:
            return
        lines.append(title)
        width = max(len(k) for k, _ in rows)
        for key, val in rows:
            lines.append(f"  {key.ljust(width)}  {val}")

    metric_rows: List[Tuple[str, str]] = []
    for name in sorted(snap.get("metrics", {})):
        val = snap["metrics"][name]
        if isinstance(val, dict):
            rendered = (
                f"count={val.get('count')} mean={val.get('mean')} "
                f"min={val.get('min')} max={val.get('max')}"
            )
        else:
            rendered = str(val)
        metric_rows.append((name, rendered))
    section("metrics", metric_rows)

    cache = snap.get("cache")
    if isinstance(cache, dict):
        rows = []
        for category in sorted(cache):
            stats = cache[category]
            hits = int(stats.get("hits", 0))
            misses = int(stats.get("misses", 0))
            total = hits + misses
            rate = f"{hits / total:.2%}" if total else "n/a"
            rows.append((category, f"hits={hits} misses={misses} hit_rate={rate}"))
        section("cache", rows)

    fft = snap.get("fftlib")
    if isinstance(fft, dict):
        section("fftlib", [(k, str(fft[k])) for k in sorted(fft)])

    return "\n".join(lines) if lines else "(no observability data)"


__all__ = [
    "SCHEMA_VERSION",
    "WARMUP_LABEL",
    "shard_path",
    "write_shard",
    "read_shards",
    "discover_shards",
    "merge_shards",
    "chrome_trace",
    "canonical_trace",
    "canonical_trace_bytes",
    "summary_table",
]
