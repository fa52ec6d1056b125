"""Enable/disable state for tracing and metrics.

Observability is off by default and every hot-path hook reduces to a
single module-attribute check while disabled.  It turns on three ways:

* environment — ``REPRO_TRACE=1`` (or ``mem`` to add tracemalloc span
  peaks) and ``REPRO_METRICS=1``, read once at import;
* programmatically — :func:`enable` / the :func:`use` context manager,
  which composes with ``fftlib.use()``;
* cross-process — the harness forwards :func:`export_config` through
  its worker initializer and workers call :func:`restore_config`.

This module is the designated raw reader for ``REPRO_TRACE`` /
``REPRO_METRICS`` (declared in :mod:`repro.analysis.registry`; the R2
rule permits raw ``os.environ`` access here only).
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, Optional, Tuple


def _parse_trace(raw: str) -> Tuple[bool, bool]:
    """Map a ``REPRO_TRACE`` value to ``(trace, memory)`` flags."""
    val = raw.strip().lower()
    if val in ("", "0", "off", "false", "no"):
        return (False, False)
    if val in ("mem", "memory"):
        return (True, True)
    return (True, False)


def _parse_flag(raw: str) -> bool:
    return raw.strip().lower() not in ("", "0", "off", "false", "no")


_TRACE, _MEMORY = _parse_trace(os.environ.get("REPRO_TRACE", ""))
_METRICS: bool = _parse_flag(os.environ.get("REPRO_METRICS", ""))
_SHARD_DIR: Optional[str] = None


def trace_enabled() -> bool:
    """True while span tracing is on (the single hot-path branch)."""
    return _TRACE


def metrics_enabled() -> bool:
    """True while the metrics registry records values."""
    return _METRICS


def memory_enabled() -> bool:
    """True while spans also record tracemalloc peak deltas."""
    return _MEMORY


def shard_dir() -> Optional[str]:
    """Directory cell scopes write per-process JSONL shards to, if any."""
    return _SHARD_DIR


def enabled() -> bool:
    """True if any observability channel is on."""
    return _TRACE or _METRICS


def enable(
    *,
    trace: Optional[bool] = None,
    metrics: Optional[bool] = None,
    memory: Optional[bool] = None,
    shard_dir: Optional[str] = None,
) -> None:
    """Set observability flags; ``None`` leaves a flag unchanged."""
    global _TRACE, _METRICS, _MEMORY, _SHARD_DIR
    if trace is not None:
        _TRACE = bool(trace)
    if metrics is not None:
        _METRICS = bool(metrics)
    if memory is not None:
        _MEMORY = bool(memory)
    if shard_dir is not None:
        _SHARD_DIR = shard_dir or None


def disable() -> None:
    """Turn every observability channel off."""
    global _TRACE, _METRICS, _MEMORY, _SHARD_DIR
    _TRACE = False
    _METRICS = False
    _MEMORY = False
    _SHARD_DIR = None


@contextlib.contextmanager
def use(
    *,
    trace: Optional[bool] = None,
    metrics: Optional[bool] = None,
    memory: Optional[bool] = None,
    shard_dir: Optional[str] = None,
) -> Iterator[None]:
    """Scoped observability override, restoring prior state on exit.

    Mirrors ``fftlib.use()``: flags left at ``None`` keep their current
    value, and the whole state (including the shard directory) is
    restored when the block exits, even on error.
    """
    global _SHARD_DIR
    saved = (_TRACE, _METRICS, _MEMORY, _SHARD_DIR)
    try:
        enable(trace=trace, metrics=metrics, memory=memory)
        if shard_dir is not None:
            _SHARD_DIR = shard_dir or None
        yield
    finally:
        restore_config(
            {
                "trace": saved[0],
                "metrics": saved[1],
                "memory": saved[2],
                "shard_dir": saved[3],
            }
        )


def export_config() -> Dict[str, object]:
    """Snapshot the current flags for forwarding to worker processes."""
    return {
        "trace": _TRACE,
        "metrics": _METRICS,
        "memory": _MEMORY,
        "shard_dir": _SHARD_DIR,
    }


def restore_config(config: Dict[str, object]) -> None:
    """Overwrite every flag from an :func:`export_config` snapshot."""
    global _TRACE, _METRICS, _MEMORY, _SHARD_DIR
    _TRACE = bool(config.get("trace", False))
    _METRICS = bool(config.get("metrics", False))
    _MEMORY = bool(config.get("memory", False))
    raw_dir = config.get("shard_dir")
    _SHARD_DIR = str(raw_dir) if raw_dir else None


__all__ = [
    "trace_enabled",
    "metrics_enabled",
    "memory_enabled",
    "shard_dir",
    "enabled",
    "enable",
    "disable",
    "use",
    "export_config",
    "restore_config",
]
