"""Contextvar-scoped span tracer.

A span is a named wall-clock interval (via :func:`repro.utils.timing.tick`,
the project's sanctioned clock seam) with optional attributes and an
optional tracemalloc peak delta.  Nesting is tracked through a
:class:`contextvars.ContextVar`, so spans opened inside
``fftlib.map_conditions`` worker threads still know their parent: the
fan-out captures ``contextvars.copy_context()`` per task group and runs
the group inside that context.

While tracing is disabled, :func:`span` returns a shared no-op object
after a single module-attribute check — the hot paths pay one branch.
Completed spans append one event dict to a process-global buffer;
:func:`drain_events` hands the buffer to the exporters
(:mod:`repro.obs.export`).
"""

from __future__ import annotations

import contextvars
import functools
import threading
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, TypeVar, Union

from ..utils.timing import tick
from . import state
from .registry import DECLARED_SPANS

F = TypeVar("F", bound=Callable[..., Any])

_EVENTS: List[Dict[str, Any]] = []
_BUFFER_LOCK = threading.Lock()
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """A live span; use as a context manager (returned by :func:`span`)."""

    __slots__ = ("name", "args", "_t0", "_mem0", "_token", "_parent")

    def __init__(self, name: str, args: Dict[str, Any]) -> None:
        self.name = name
        self.args = args
        self._t0 = 0.0
        self._mem0: Optional[int] = None
        self._token: Optional["contextvars.Token[Optional[Span]]"] = None
        self._parent: Optional["Span"] = None

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        self._parent = _CURRENT.get()
        self._token = _CURRENT.set(self)
        if state.memory_enabled():
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            self._mem0 = tracemalloc.get_traced_memory()[0]
        self._t0 = tick()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        dur = tick() - self._t0
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        args = self.args
        if self._mem0 is not None:
            _, peak = tracemalloc.get_traced_memory()
            args = dict(args)
            # Peak-since-entry upper bound: tracemalloc's peak is global,
            # so concurrent spans may attribute shared allocations twice.
            args["mem_peak_kb"] = round(max(0, peak - self._mem0) / 1024.0, 3)
        event: Dict[str, Any] = {
            "name": self.name,
            "cat": self.name.split(".", 1)[0],
            "ph": "X",
            "ts": self._t0,
            "dur": dur,
            "tid": threading.get_ident(),
            "parent": self._parent.name if self._parent is not None else None,
        }
        if exc_type is not None:
            event["error"] = getattr(exc_type, "__name__", str(exc_type))
        if args:
            event["args"] = args
        with _BUFFER_LOCK:
            _EVENTS.append(event)


SpanLike = Union[Span, _NullSpan]


def span(name: str, **attrs: Any) -> SpanLike:
    """Open a span named *name* (must be declared in the registry).

    Returns a context manager; while tracing is disabled this is a
    shared no-op singleton and the call costs one branch.
    """
    if not state.trace_enabled():
        return _NULL_SPAN
    if name not in DECLARED_SPANS:
        raise ValueError(
            f"span name {name!r} is not declared in repro.obs.registry"
        )
    return Span(name, dict(attrs))


def traced(name: str, **attrs: Any) -> Callable[[F], F]:
    """Decorator form of :func:`span` for whole-function spans."""

    def deco(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*a: Any, **kw: Any) -> Any:
            if not state.trace_enabled():
                return fn(*a, **kw)
            with span(name, **attrs):
                return fn(*a, **kw)

        return wrapper  # type: ignore[return-value]

    return deco


def current_span_name() -> Optional[str]:
    """Name of the innermost open span in this context, if any."""
    cur = _CURRENT.get()
    return cur.name if cur is not None else None


def drain_events() -> List[Dict[str, Any]]:
    """Return and clear the completed-span buffer."""
    with _BUFFER_LOCK:
        out = list(_EVENTS)
        _EVENTS.clear()
    return out


__all__ = [
    "Span",
    "SpanLike",
    "span",
    "traced",
    "current_span_name",
    "drain_events",
]
