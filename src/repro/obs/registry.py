"""Declared span and metric names for the observability layer.

Every span or metric name the project uses outside :mod:`repro.obs`
must be declared here, mirroring how :mod:`repro.analysis.registry`
governs ``REPRO_*`` environment variables.  The reprolint R10
``metrics-registry`` rule imports this module at lint time and flags
literal names that are not declared (or non-literal names it cannot
check), so the name space cannot silently fragment into ad-hoc
strings — the same discipline R2 applies to env vars.

This module is pure data with zero side effects and no imports from
the rest of the package, so the linter (and the docs) can load it
without touching numpy or the optics stack.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

# Span taxonomy, outermost first.  ``cat`` in exported traces is the
# first dotted segment (harness / solver / engine / imaging).
DECLARED_SPANS: Dict[str, str] = {
    "harness.cell": "one harness sweep cell (run_matrix or process-window)",
    "harness.warmup": "optics cache warm-up for a sweep configuration",
    "solver.iter": "one outer solver iteration (all SMO/ILT loops)",
    "imaging.forward": "fused incoherent-image forward pass",
    "imaging.vjp": "streamed incoherent-image backward pass",
    "engine.condition": "one process-condition pass of a multi-condition imaging call",
}

# name -> (kind, description); kind is counter | gauge | histogram.
DECLARED_METRICS: Dict[str, Tuple[str, str]] = {
    "solver.iterations": ("counter", "outer solver iterations completed"),
    "solver.loss": ("gauge", "latest outer-loop loss value"),
    "solver.grad_norm": ("gauge", "latest outer-loop gradient norm"),
    "solver.iter_seconds": ("histogram", "wall-clock seconds per solver iteration"),
    "harness.cells": ("counter", "harness sweep cells executed"),
    "harness.cell_seconds": ("histogram", "wall-clock seconds per harness cell"),
    "harness.retries": ("counter", "harness cell retries after transient faults"),
    "harness.timeouts": ("counter", "harness cells killed by the watchdog timeout"),
    "harness.pool_rebuilds": ("counter", "process-pool rebuilds after worker death"),
    "harness.failures": ("counter", "harness cells that exhausted their retry budget"),
    "fft.transforms": ("counter", "2-D transforms run through NumpyBackend.fft2/ifft2"),
    "fft.points": ("counter", "points transformed by NumpyBackend.fft2/ifft2"),
}


def is_declared_span(name: str) -> bool:
    """Return True if *name* is a registered span name."""
    return name in DECLARED_SPANS


def is_declared_metric(name: str) -> bool:
    """Return True if *name* is a registered metric name."""
    return name in DECLARED_METRICS


def metric_kind(name: str) -> Optional[str]:
    """Return the declared kind of *name* (``counter``/``gauge``/``histogram``)."""
    entry = DECLARED_METRICS.get(name)
    return entry[0] if entry is not None else None


__all__ = [
    "DECLARED_SPANS",
    "DECLARED_METRICS",
    "is_declared_span",
    "is_declared_metric",
    "metric_kind",
]
