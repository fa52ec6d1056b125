"""Outside-in per-layer tracer for the SMO benchmark.

The program under test is not edited: :meth:`Tracer.install` replaces a
fixed set of public functions and methods of the ``repro`` modules with
thin wrappers that open a span around the original call, and swaps the
``obs_span`` names those modules already import for an interceptor that
turns a few declared span names (``solver.iter``, ``imaging.vjp``,
``engine.condition[s]``) into spans of this tracer.  :meth:`uninstall`
puts every original object back.

Spans nest through a :class:`contextvars.ContextVar`; the library's
condition-axis thread pool copies the caller's context into each task,
so spans opened on pool threads keep their parent.

Attribution (:func:`attribute`) is a sweep over all span boundaries.
In every interval between two boundaries the wall-clock time goes to
the innermost open spans, shared evenly when several of them run at
once on different threads.  For spans that run alone this is exactly
"duration minus the union of the intervals its children cover"; with
concurrent children it never goes negative, and the self times of a
root's subtree always add up to the root's duration.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "attribute", "layer_metrics", "render_tree", "root_of"]

_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "smobench_span", default=None
)

#: Library span names (passed to ``repro.obs.span``) that become spans here.
OBS_SPANS = ("solver.iter", "imaging.vjp", "engine.condition", "engine.conditions")

#: Every metric :func:`layer_metrics` reports; layers a workload never
#: reaches read zero.
LAYER_KEYS = (
    "smo.inner_so_s", "smo.source_basis_s", "smo.source_basis_calls",
    "smo.hypergrad_ctx_s", "smo.hypergrad_ctx_calls", "smo.hvp_s", "smo.hvp_calls",
    "smo.mixed_vjp_s", "smo.mixed_vjp_calls", "smo.iterations",
    "autodiff.grad_s", "autodiff.grad_calls", "autodiff.grad_cg_s", "autodiff.grad_cg_calls",
    "imaging.forward_s", "imaging.forward_calls", "imaging.vjp_s", "imaging.vjp_calls",
    "engine.conditions_s", "fft.s", "fft.fft2_calls", "fft.ifft2_calls",
    "fft.transforms", "fft.points", "fft.bytes", "hopkins.socs_s", "hopkins.socs_calls",
    "judge.s", "judge.calls", "layouts.raster_s",
)

#: Spans that are solver phases: reported by inclusive time.
ORACLES = ("smo.hypergrad_ctx", "smo.hvp", "smo.mixed_vjp", "smo.source_basis")


class Span:
    """One closed interval of one named layer call."""

    __slots__ = ("name", "parent", "t0", "t1", "counts", "self_s", "incl_s")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.t0 = 0.0
        self.t1 = 0.0
        #: (transforms, points, bytes) for FFT spans, else None.
        self.counts: Optional[Tuple[int, int, int]] = None
        self.self_s = 0.0
        self.incl_s = 0.0


class _Open:
    """Context manager that records one span into a tracer."""

    __slots__ = ("_tracer", "_name", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        span = Span(self._name, _CURRENT.get())
        self._span = span
        self._token = _CURRENT.set(span)
        span.t0 = time.perf_counter()
        return span

    def __exit__(self, *exc: object) -> None:
        span = self._span
        span.t1 = time.perf_counter()
        _CURRENT.reset(self._token)
        with self._tracer.lock:
            self._tracer.spans.append(span)


def _shape_counts(x: Any, out: Any) -> Tuple[int, int, int]:
    """(2-D transforms, points, bytes in + out) computed from shapes."""
    shape = tuple(getattr(x, "shape", ()))
    if len(shape) < 2:
        return 0, 0, 0
    batch = 1
    for dim in shape[:-2]:
        batch *= int(dim)
    points = batch * int(shape[-2]) * int(shape[-1])
    return batch, points, int(getattr(x, "nbytes", 0)) + int(getattr(out, "nbytes", 0))


class Tracer:
    """Collects spans from wrappers installed around library calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.lock = threading.Lock()
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    # -- patching ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if owner is None or not hasattr(owner, attr):
            self.missing.append(label)
            return
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own or not isinstance(owner, type)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with _Open(self, name):
                    return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def _wrap_grad(self, owner: Any) -> None:
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                create = kwargs.get("create_graph", args[2] if len(args) > 2 else False)
                with _Open(self, "autodiff.grad_cg" if create else "autodiff.grad"):
                    return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, "grad", make)

    def _wrap_fft(self, owner: Any, attr: str) -> None:
        name = "fft." + attr

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(backend: Any, x: Any, *args: Any, **kwargs: Any) -> Any:
                with _Open(self, name) as span:
                    # Shape and size are read before the call: an
                    # overwrite_x transform may reuse x as its workspace.
                    out = fn(backend, x, *args, **kwargs)
                    span.counts = _shape_counts(x, out)
                return out

            return wrapper

        self._patch(owner, attr, make)

    def _intercept_obs(self, module: Any, attr: str) -> None:
        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def span(name: str, **attrs: Any) -> Any:
                if name in OBS_SPANS:
                    return _Open(self, name)
                return original(name, **attrs)

            return span

        self._patch(module, attr, make)

    def install(self) -> None:
        """Wrap every traced layer boundary; absent targets are listed in
        ``missing`` and their layers read zero."""
        import importlib

        def mod(name: str) -> Any:
            try:
                return importlib.import_module(name)
            except ImportError:
                self.missing.append(name)
                return None

        ad = mod("repro.autodiff")
        bismo = mod("repro.smo.bismo")
        objective = mod("repro.smo.objective")
        abbe = mod("repro.optics.abbe")
        hopkins = mod("repro.optics.hopkins")
        backend = mod("repro.optics.backend")
        runner = mod("repro.harness.runner")

        self._wrap_grad(ad)
        ctx = getattr(bismo, "HypergradientContext", None)
        self._wrap(ctx, "__init__", "smo.hypergrad_ctx")
        self._wrap(ctx, "hvp", "smo.hvp")
        self._wrap(ctx, "mixed_vjp", "smo.mixed_vjp")
        self._wrap(getattr(bismo, "BiSMO", None), "run", "smo.bismo")
        for value in vars(objective).values() if objective else ():
            if isinstance(value, type) and "source_only_loss" in value.__dict__:
                self._wrap(value, "source_only_loss", "smo.source_basis")
        for engine in (getattr(abbe, "AbbeImaging", None), getattr(hopkins, "HopkinsImaging", None)):
            self._wrap(engine, "aerial", "imaging.forward")
            self._wrap(engine, "aerial_conditions", "imaging.forward")
        numpy_backend = getattr(backend, "NumpyBackend", None)
        self._wrap_fft(numpy_backend, "fft2")
        self._wrap_fft(numpy_backend, "ifft2")
        self._wrap(mod("repro.optics.cache"), "socs", "hopkins.socs")
        for owner in (mod("repro.layouts"), mod("repro.layouts.datasets"), runner):
            self._wrap(owner, "tile_stack", "layouts.raster")
        self._wrap(runner, "evaluate_final", "judge.evaluate")
        for name in (
            "repro.smo.bismo",
            "repro.smo.mo_only",
            "repro.smo.am",
            "repro.smo.so_only",
            "repro.baselines.nilt",
            "repro.baselines.milt",
            "repro.optics.abbe",
            "repro.optics.hopkins",
        ):
            self._intercept_obs(mod(name), "obs_span")
        self._intercept_obs(mod("repro.autodiff.functional"), "_obs_span")

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def attribute(spans: List[Span]) -> None:
    """Fill ``self_s`` and ``incl_s`` of every span (see module docstring)."""
    index = {id(span): i for i, span in enumerate(spans)}
    parent = [index.get(id(span.parent), -1) for span in spans]
    events = [(span.t0, 1, i) for i, span in enumerate(spans)]
    events += [(span.t1, 0, i) for i, span in enumerate(spans)]
    events.sort()  # at equal times closes (0) come before opens (1)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: Dict[int, None] = {}
    last = events[0][0] if events else 0.0
    for t, opening, i in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for j in leaves:
                spans[j].self_s += share
        last = t
        p = parent[i]
        if opening:
            is_open[i] = True
            leaves[i] = None
            if p >= 0 and is_open[p]:
                open_children[p] += 1
                leaves.pop(p, None)
        else:
            is_open[i] = False
            leaves.pop(i, None)
            if p >= 0 and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves[p] = None
    # spans close children-first, so one pass in close order suffices
    for span in spans:
        span.incl_s += span.self_s
        if span.parent is not None and id(span.parent) in index:
            span.parent.incl_s += span.incl_s


def _ancestors(span: Span) -> Iterable[Span]:
    node = span.parent
    while node is not None:
        yield node
        node = node.parent


def root_of(span: Span) -> Span:
    node = span
    while node.parent is not None:
        node = node.parent
    return node


def layer_metrics(spans: List[Span], solve_root: Span) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (spans already attributed).

    Layer leaves (autodiff, imaging, engine, FFT, SOCS) report self time
    inside the solve; solver phases (``smo.*``) report inclusive time;
    the judge and rasterization report inclusive time over the whole
    traced pass (set-up, solve and judge).
    """
    m: Dict[str, float] = dict.fromkeys(LAYER_KEYS, 0.0)

    def add(key: str, value: float) -> None:
        m[key] += value

    for span in spans:
        name = span.name
        if name == "layouts.raster":
            add("layouts.raster_s", span.incl_s)
            continue
        if name == "judge.evaluate":
            add("judge.s", span.incl_s)
            add("judge.calls", 1)
            continue
        if span is solve_root or root_of(span) is not solve_root:
            continue
        if name in ORACLES:
            key = name.split(".", 1)[1]
            add(f"smo.{key}_s", span.incl_s)
            add(f"smo.{key}_calls", 1)
        elif name == "solver.iter":
            add("smo.iterations", 1)
        elif name.startswith("autodiff."):
            add(f"{name}_s", span.self_s)
            add(f"{name}_calls", 1)
            names = [a.name for a in _ancestors(span)]
            if "smo.bismo" in names and not any(n in ORACLES for n in names):
                add("smo.inner_so_s", span.incl_s)
        elif name in ("imaging.forward", "imaging.vjp"):
            add(f"{name}_s", span.self_s)
            add(f"{name}_calls", 1)
        elif name.startswith("engine."):
            add("engine.conditions_s", span.self_s)
        elif name.startswith("fft."):
            add("fft.s", span.self_s)
            add(f"fft.{name[4:]}_calls", 1)
            transforms, points, nbytes = span.counts or (0, 0, 0)
            add("fft.transforms", transforms)
            add("fft.points", points)
            add("fft.bytes", nbytes)
        elif name == "hopkins.socs":
            add("hopkins.socs_s", span.self_s)
            add("hopkins.socs_calls", 1)
    other = solve_root.self_s
    m["trace.other_s"] = other
    m["trace.coverage"] = 1.0 - other / solve_root.incl_s if solve_root.incl_s else 0.0
    iters = m["smo.iterations"]
    m["fft.transforms_per_iter"] = m["fft.transforms"] / iters if iters else 0.0
    return m


def render_tree(root: Span, spans: List[Span], min_share: float = 0.002) -> str:
    """Self-time tree of one root, spans merged by their name path.

    The self column of every printed row plus the hidden remainder adds
    up to the root's duration; rows below ``min_share`` of it are folded
    into their parent's ``(below threshold)`` line.
    """
    path_of: Dict[int, Tuple[str, ...]] = {id(root): (root.name,)}

    def path(span: Span) -> Tuple[str, ...]:
        key = id(span)
        if key not in path_of:
            parent = span.parent
            path_of[key] = (path(parent) if parent is not None else ()) + (span.name,)
        return path_of[key]

    rows: Dict[Tuple[str, ...], List[float]] = {}
    for span in spans:
        if span is not root and root_of(span) is not root:
            continue
        row = rows.setdefault(path(span), [0.0, 0.0, 0.0])
        row[0] += span.self_s
        row[1] += span.incl_s
        row[2] += 1
    total = root.incl_s or 1.0
    children: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
    for key in rows:
        if len(key) > 1:
            children.setdefault(key[:-1], []).append(key)
    lines = [f"{'span':<58}{'self_s':>10}{'incl_s':>10}{'calls':>8}{'self%':>7}"]

    def emit(key: Tuple[str, ...], depth: int) -> None:
        self_s, incl_s, calls = rows[key]
        hidden = 0.0
        label = "  " * depth + key[-1]
        lines.append(
            f"{label:<58}{self_s:>10.4f}{incl_s:>10.4f}{int(calls):>8d}"
            f"{100.0 * self_s / total:>6.1f}%"
        )
        for child in sorted(children.get(key, []), key=lambda k: -rows[k][1]):
            if rows[child][1] >= min_share * total:
                emit(child, depth + 1)
            else:
                hidden += rows[child][1]
        if hidden:
            label = "  " * (depth + 1) + "(below threshold)"
            lines.append(f"{label:<58}{hidden:>10.4f}{hidden:>10.4f}{'':>8}{100.0 * hidden / total:>6.1f}%")

    emit((root.name,), 0)
    return "\n".join(lines)
