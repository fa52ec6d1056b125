"""repro.obs — opt-in observability: span tracing, metrics, exporters.

The profiling substrate for the whole stack.  Disabled by default with
near-zero overhead (every hook is a single branch); enable via the
``REPRO_TRACE`` / ``REPRO_METRICS`` environment variables, the
:func:`use` context manager, or the harness CLI's ``--trace PATH`` /
``--metrics`` flags.  Span and metric names are governed by
:mod:`repro.obs.registry` (lint rule R10), wall-clock reads go through
``utils.timing.tick``, and parallel harness runs merge per-process
JSONL shards into one Chrome trace-event JSON (Perfetto-loadable).

Typical programmatic session::

    from repro import obs

    with obs.use(trace=True, metrics=True):
        run_matrix(...)
        trace = obs.chrome_trace(obs.drain_events(), obs.snapshot())
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Dict, Iterator, Optional

from ..utils.timing import tick
from . import state as _state
from . import trace as _trace
from .export import (
    WARMUP_LABEL,
    canonical_trace,
    canonical_trace_bytes,
    chrome_trace,
    discover_shards,
    merge_shards,
    shard_path,
    summary_table,
    write_shard,
)
from .metrics import (
    counter,
    gauge,
    histogram,
    merge_metric_snapshots,
    metric_delta,
    reset_metrics,
    snapshot,
    values,
)
from .registry import DECLARED_METRICS, DECLARED_SPANS
from .state import (
    disable,
    enable,
    enabled,
    export_config,
    memory_enabled,
    metrics_enabled,
    restore_config,
    shard_dir,
    trace_enabled,
    use,
)
from .trace import Span, current_span_name, drain_events, peek_events, span, traced


def flush_shard(label: str = WARMUP_LABEL) -> None:
    """Drain buffered span events into this process's shard now.

    Pool initializers call this after the optics-cache warmup so the
    warmup spans land in a dedicated shard record instead of being
    swept into the worker's first :func:`cell_scope` drain.  Without a
    configured shard directory the buffer is discarded (there is no
    sink, and leaving it would misattribute the events to the next
    cell).  A no-op while tracing is off.
    """
    if not _state.trace_enabled():
        return
    events = drain_events()
    directory = _state.shard_dir()
    if directory and events:
        write_shard(shard_path(directory, os.getpid()), label, events, {})


@contextlib.contextmanager
def cell_scope(label: str) -> Iterator[None]:
    """Wrap one harness cell: span it, meter it, and write its shard.

    The harness runs every sweep cell (serial, thread, or process
    worker) inside this scope.  When a shard directory is configured,
    the cell's completed spans and its metric *delta* are appended to
    this process's ``shard-<pid>.jsonl`` on exit — the unit the parent
    later merges into one coherent trace.  A no-op (single branch) while
    observability is disabled.
    """
    if not _state.enabled():
        yield
        return
    base = values() if _state.metrics_enabled() else {}
    t0 = tick()
    try:
        with _trace.span("harness.cell", label=label):
            yield
    finally:
        seconds = tick() - t0
        counter("harness.cells").inc()
        histogram("harness.cell_seconds").observe(seconds)
        directory = _state.shard_dir()
        if directory:
            events = drain_events() if _state.trace_enabled() else []
            delta = (
                metric_delta(base, values()) if _state.metrics_enabled() else {}
            )
            write_shard(
                shard_path(directory, os.getpid()), label, events, delta
            )


def observe_iteration(
    record: Any, grad: Optional[Any] = None, grad_norm: Optional[float] = None
) -> None:
    """Feed one solver ``IterationRecord`` into the metrics registry.

    Called by every solver loop right after it appends a record; a
    single branch while metrics are disabled.  ``grad`` may be any
    array-like (or an autodiff tensor with ``.data``) — its L2 norm is
    only computed when metrics are on, so the hook stays free in the
    default configuration.  Decoding journaled records must *not* call
    this (it would double-count a resumed run), which is why the hook
    lives at the construction sites rather than on the dataclass.
    """
    if not _state.metrics_enabled():
        return
    counter("solver.iterations").inc()
    loss = getattr(record, "loss", None)
    if loss is not None:
        gauge("solver.loss").set(float(loss))
    seconds = getattr(record, "seconds", None)
    if seconds is not None:
        histogram("solver.iter_seconds").observe(float(seconds))
    if grad_norm is None and grad is not None:
        import numpy as _np

        arr = getattr(grad, "data", grad)
        grad_norm = float(_np.linalg.norm(_np.asarray(arr)))
    if grad_norm is not None:
        gauge("solver.grad_norm").set(float(grad_norm))


__all__ = [
    "DECLARED_SPANS",
    "DECLARED_METRICS",
    "Span",
    "span",
    "traced",
    "current_span_name",
    "drain_events",
    "peek_events",
    "counter",
    "gauge",
    "histogram",
    "values",
    "reset_metrics",
    "metric_delta",
    "merge_metric_snapshots",
    "snapshot",
    "observe_iteration",
    "cell_scope",
    "flush_shard",
    "WARMUP_LABEL",
    "use",
    "enable",
    "disable",
    "enabled",
    "trace_enabled",
    "metrics_enabled",
    "memory_enabled",
    "shard_dir",
    "export_config",
    "restore_config",
    "shard_path",
    "write_shard",
    "discover_shards",
    "merge_shards",
    "chrome_trace",
    "canonical_trace",
    "canonical_trace_bytes",
    "summary_table",
]
