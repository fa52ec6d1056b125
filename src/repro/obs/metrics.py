"""Typed metrics registry: counters, gauges, and histograms.

Metric names are *declared* in :mod:`repro.obs.registry` (the R10 lint
rule enforces it at call sites, this module enforces it at runtime), so
the project has one governed metric namespace instead of bespoke
counters per subsystem.  While metrics are disabled the accessors
return shared no-op instruments after a single branch.

:func:`snapshot` is the unified telemetry read: it folds in the
subsystem counters that predate this registry — the optics cache
hit/miss table, the fftlib worker-budget policy, and the FFT seam's
fingerprint — so one call captures everything a bench fingerprint or
a shard needs.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Union

from .registry import DECLARED_METRICS, metric_kind
from . import state

_LOCK = threading.Lock()


class _NullInstrument:
    """Shared no-op counter/gauge/histogram while metrics are disabled."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL = _NullInstrument()


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with _LOCK:
            self.value += n


class Gauge:
    """Last-written float value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        with _LOCK:
            self.value = float(value)


class Histogram:
    """Streaming summary (count/total/min/max) of observed values."""

    __slots__ = ("name", "count", "total", "vmin", "vmax")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        v = float(value)
        with _LOCK:
            self.count += 1
            self.total += v
            self.vmin = v if self.vmin is None else min(self.vmin, v)
            self.vmax = v if self.vmax is None else max(self.vmax, v)


Instrument = Union[Counter, Gauge, Histogram]
_REGISTRY: Dict[str, Instrument] = {}

_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _get(name: str, kind: str) -> Instrument:
    declared = metric_kind(name)
    if declared is None:
        raise ValueError(
            f"metric name {name!r} is not declared in repro.obs.registry"
        )
    if declared != kind:
        raise ValueError(
            f"metric {name!r} is declared as a {declared}, not a {kind}"
        )
    with _LOCK:
        inst = _REGISTRY.get(name)
        if inst is None:
            inst = _CLASSES[kind](name)
            _REGISTRY[name] = inst
    return inst


def counter(name: str) -> Union[Counter, _NullInstrument]:
    """The declared counter *name*, or a no-op while metrics are off."""
    if not state.metrics_enabled():
        return _NULL
    inst = _get(name, "counter")
    return inst


def gauge(name: str) -> Union[Gauge, _NullInstrument]:
    """The declared gauge *name*, or a no-op while metrics are off."""
    if not state.metrics_enabled():
        return _NULL
    return _get(name, "gauge")


def histogram(name: str) -> Union[Histogram, _NullInstrument]:
    """The declared histogram *name*, or a no-op while metrics are off."""
    if not state.metrics_enabled():
        return _NULL
    return _get(name, "histogram")


def values() -> Dict[str, Any]:
    """Plain-data snapshot of every instrument touched so far."""
    out: Dict[str, Any] = {}
    with _LOCK:
        items = list(_REGISTRY.items())
    for name, inst in items:
        if isinstance(inst, Counter):
            out[name] = inst.value
        elif isinstance(inst, Gauge):
            out[name] = inst.value
        else:
            mean = inst.total / inst.count if inst.count else 0.0
            out[name] = {
                "count": inst.count,
                "total": round(inst.total, 9),
                "min": inst.vmin,
                "max": inst.vmax,
                "mean": round(mean, 9),
            }
    return out


def reset_metrics() -> None:
    """Drop every instrument (tests and benchmark harnesses)."""
    with _LOCK:
        _REGISTRY.clear()


def metric_delta(base: Dict[str, Any], current: Dict[str, Any]) -> Dict[str, Any]:
    """Per-window delta between two :func:`values` snapshots.

    Counters and histogram count/total subtract; gauges and histogram
    min/max take the current value (a windowed min/max would need full
    sample retention, which the streaming summary deliberately avoids).
    """
    out: Dict[str, Any] = {}
    for name, cur in current.items():
        kind = metric_kind(name)
        prev = base.get(name)
        if kind == "counter":
            out[name] = cur - (prev if isinstance(prev, int) else 0)
        elif kind == "histogram" and isinstance(cur, dict):
            prev_d = prev if isinstance(prev, dict) else {}
            count = cur["count"] - int(prev_d.get("count", 0))
            total = cur["total"] - float(prev_d.get("total", 0.0))
            mean = total / count if count else 0.0
            out[name] = {
                "count": count,
                "total": round(total, 9),
                "min": cur["min"],
                "max": cur["max"],
                "mean": round(mean, 9),
            }
        else:
            out[name] = cur
    return {k: v for k, v in out.items() if not _is_empty_delta(v)}


def _is_empty_delta(value: Any) -> bool:
    if isinstance(value, int):
        return value == 0
    if isinstance(value, dict):
        return value.get("count") == 0
    return value is None


def merge_metric_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-shard metric snapshots into run totals.

    Counters and histogram count/total sum across shards; histogram
    min/max widen; gauges take the last shard's value (shards arrive in
    deterministic submission order, so this is reproducible).
    """
    out: Dict[str, Any] = {}
    for snap in snapshots:
        for name, val in snap.items():
            kind = metric_kind(name)
            if kind == "counter" and isinstance(val, int):
                out[name] = int(out.get(name, 0)) + val
            elif kind == "histogram" and isinstance(val, dict):
                acc = out.get(name)
                if not isinstance(acc, dict):
                    out[name] = dict(val)
                else:
                    count = int(acc["count"]) + int(val["count"])
                    total = float(acc["total"]) + float(val["total"])
                    mins = [m for m in (acc["min"], val["min"]) if m is not None]
                    maxs = [m for m in (acc["max"], val["max"]) if m is not None]
                    out[name] = {
                        "count": count,
                        "total": round(total, 9),
                        "min": min(mins) if mins else None,
                        "max": max(maxs) if maxs else None,
                        "mean": round(total / count, 9) if count else 0.0,
                    }
            else:
                out[name] = val
    return out


def snapshot() -> Dict[str, Any]:
    """Unified telemetry snapshot: registry values + subsystem counters.

    Imports the optics modules lazily so this package stays importable
    (and cheap) in contexts that never touch the imaging stack.
    """
    out: Dict[str, Any] = {"metrics": values()}
    try:
        from ..optics import cache as _cache

        out["cache"] = _cache.stats()
    except ImportError:  # optics stack unavailable (stripped installs)
        pass
    try:
        from ..optics import fftlib as _fftlib

        out["fftlib"] = _fftlib.describe()
    except ImportError:
        pass
    try:
        from ..optics import backend as _backend

        out["backend"] = _backend.describe()
    except ImportError:
        pass
    return out


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "counter",
    "gauge",
    "histogram",
    "values",
    "reset_metrics",
    "metric_delta",
    "merge_metric_snapshots",
    "snapshot",
]
