"""Thread policy of the FFT seam and the condition-axis fan-out.

Every transform is issued by :mod:`repro.optics.backend`; this module
holds the policy those transforms and the streamed imaging passes run
under:

* **Workers** — pocketfft releases the GIL and threads across the
  batch of independent 2-D transforms; ``REPRO_FFT_WORKERS`` /
  :func:`set_workers` control the thread count (``0`` = one worker per
  CPU).  Per-transform results carry no cross-thread reductions, so
  multi-worker output is bitwise identical to serial output — the
  parallel-harness determinism guarantees survive.
* **Streaming chunk** — the source-axis chunk size used by the fused
  :func:`repro.autodiff.functional.incoherent_image_stack` primitive
  (``REPRO_FFT_CHUNK`` / :func:`set_stream_chunk`), with
  :func:`run_with_chunk_fallback` halving it once on ``MemoryError``.
* **Condition workers** — the cap on the one thread fan-out,
  :func:`map_conditions` (``REPRO_COND_WORKERS`` /
  :func:`set_condition_workers`; ``0`` = fill the worker budget).  The
  streamed imaging passes (behind every engine's imaging methods, graph
  or graph-free) split into independent blocks — one (kernel stack,
  source chunk) each, one tile each for the intensity basis — and run
  them on a persistent, lazily-created ``ThreadPoolExecutor``, reducing
  the results in block order on the caller's thread.  At most that many
  blocks run at once, and one finished block may wait for its turn
  beyond them, so a thread that finishes ahead of a slow block starts
  the next one instead of idling.  numpy and pocketfft release the GIL,
  so the blocks' gathers, multiplies and transforms genuinely overlap.
* **Unified worker budget** — one cap coordinating the three parallelism
  layers (harness worker *processes* x condition *threads* x per-FFT
  pocketfft threads): within a process, ``condition_workers x per-FFT
  workers <= effective_budget()``.  :func:`map_conditions` hands every
  pool thread its share of the budget through a thread-local override,
  and ``run_matrix(workers=N)`` gives each worker process
  ``cpu // N`` of the machine via :func:`set_worker_budget`, so sweeps
  never oversubscribe the cores however the layers compose.

This module deliberately imports nothing from :mod:`repro` so the
autodiff layer can depend on it without import cycles.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, Iterator, Optional

import numpy as np

__all__ = [
    "get_workers",
    "set_workers",
    "effective_workers",
    "get_condition_workers",
    "set_condition_workers",
    "effective_condition_workers",
    "get_worker_budget",
    "set_worker_budget",
    "effective_budget",
    "map_conditions",
    "get_stream_chunk",
    "set_stream_chunk",
    "run_with_chunk_fallback",
    "freq_reverse",
    "use",
    "describe",
]


def _env_int(var: str, default: int, minimum: int) -> int:
    """``var`` as an integer ``>= minimum`` (``default`` when unset); a
    malformed value raises a ``ValueError`` that names the variable."""
    raw = os.environ.get(var, "").strip()
    if not raw:
        return default
    try:
        value: Optional[int] = int(raw)
    except ValueError:
        value = None
    if value is None or value < minimum:
        raise ValueError(f"{var} must be an integer >= {minimum}; got {raw!r}")
    return value


def _env_policy() -> Dict[str, Any]:
    """The policy the ``REPRO_*`` knobs select (read once, at import)."""
    return {
        "workers": _env_int("REPRO_FFT_WORKERS", 0, 0),  # 0 = one per CPU
        "chunk": _env_int("REPRO_FFT_CHUNK", 16, 1),
        # Condition-axis thread fan-out (0 = fill the worker budget) and
        # the unified per-process thread budget (0 = one per CPU).
        "cond_workers": _env_int("REPRO_COND_WORKERS", 0, 0),
        "budget": _env_int("REPRO_WORKER_BUDGET", 0, 0),
    }


#: Mutable module state (one process-wide policy, like the optics cache).
_STATE: Dict[str, Any] = _env_policy()


# ----------------------------------------------------------------------
# policy accessors
# ----------------------------------------------------------------------
def get_workers() -> int:
    """Configured worker count (``0`` means one per CPU)."""
    return int(_STATE["workers"])


def set_workers(n: int) -> None:
    if n < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto); got {n}")
    _STATE["workers"] = int(n)


_CPU_COUNT = os.cpu_count() or 1

#: Thread-local overrides: :func:`map_conditions` hands each pool thread
#: its slice of the worker budget here so nested FFTs cannot
#: oversubscribe, and marks pool threads so nested fan-outs run inline.
_TLS = threading.local()


def effective_workers() -> int:
    """The worker count actually handed to pocketfft (always >= 1).

    Inside a condition-pool thread this returns that thread's share of
    the unified budget (set by :func:`map_conditions`); otherwise the
    configured count, capped by :func:`effective_budget`.
    """
    override = getattr(_TLS, "fft_workers", None)
    if override is not None:
        return max(1, int(override))
    n = int(_STATE["workers"])
    if n == 0:
        n = _CPU_COUNT
    return max(1, min(n, effective_budget()))


def get_worker_budget() -> int:
    """Configured per-process thread budget (``0`` = one per CPU)."""
    return int(_STATE["budget"])


def set_worker_budget(n: int) -> None:
    """Cap the total threads this process may use across FFT and
    condition workers (``0`` = auto: one per CPU).

    ``run_matrix(workers=N)`` hands each worker process ``cpu // N`` so
    process-parallel sweeps never oversubscribe the machine however the
    per-process thread layers compose.
    """
    if n < 0:
        raise ValueError(f"worker budget must be >= 0 (0 = auto); got {n}")
    _STATE["budget"] = int(n)


def effective_budget() -> int:
    """The live per-process thread budget (always >= 1)."""
    n = int(_STATE["budget"])
    if n == 0:
        n = _CPU_COUNT
    return max(1, n)


def get_condition_workers() -> int:
    """Configured condition-axis fan-out (``0`` = fill the budget)."""
    return int(_STATE["cond_workers"])


def set_condition_workers(n: int) -> None:
    """Thread count of the :func:`map_conditions` block fan-out
    (``0`` = auto: fill the worker budget; ``1`` = serial)."""
    if n < 0:
        raise ValueError(
            f"condition workers must be >= 0 (0 = auto); got {n}"
        )
    _STATE["cond_workers"] = int(n)


def effective_condition_workers(num_tasks: Optional[int] = None) -> int:
    """Condition threads a fan-out of ``num_tasks`` blocks would use.

    Always >= 1, never more than the budget, never more than the task
    count (three blocks cannot use a fourth thread).
    """
    n = int(_STATE["cond_workers"])
    if n == 0:
        n = effective_budget()
    n = max(1, min(n, effective_budget()))
    if num_tasks is not None:
        n = min(n, max(1, int(num_tasks)))
    return n


def get_stream_chunk() -> int:
    """Source-axis chunk size for the streamed fused primitive."""
    return int(_STATE["chunk"])


def set_stream_chunk(n: int) -> None:
    if n < 1:
        raise ValueError(f"stream chunk must be >= 1; got {n}")
    _STATE["chunk"] = int(n)


def run_with_chunk_fallback(fn: Callable[[int], Any], csize: int) -> Any:
    """Call ``fn(csize)``; on ``MemoryError`` halve the chunk and retry once.

    The streamed fused primitive's peak transient is its held
    ``(B, chunk, K, K)`` transform blocks (K the kernel size; at most
    :func:`map_conditions`'s w running plus one awaiting its turn or
    being reduced), so halving the chunk roughly halves the allocation
    that just failed.  ``fn`` runs a whole pass; the failed attempt has
    drained the pool (see :func:`map_conditions`) and is released before
    the retry starts.
    The result is chunk-invariant (atol ~ 1e-13, see the fused-imaging
    tests), so a degraded retry is numerically equivalent — callers
    that need a *bitwise* contract should pin the chunk and let the
    error propagate instead.  A second ``MemoryError`` (or one at
    ``chunk == 1``) propagates: memory pressure that survives halving
    is genuine exhaustion.
    """
    # Lazy import: fftlib deliberately imports nothing from repro at
    # module scope so it stays usable before the package is fully built.
    from ..utils.faultinject import fault_point

    try:
        fault_point("fftlib.stream_chunk")
        return fn(int(csize))
    except MemoryError:
        if csize <= 1:
            raise
    # Retried outside the handler, so the failed attempt's traceback (and
    # the buffers its frames hold) is gone before the retry allocates.
    fault_point("fftlib.stream_chunk")
    return fn(max(1, int(csize) // 2))


@contextlib.contextmanager
def use(
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
    condition_workers: Optional[int] = None,
    budget: Optional[int] = None,
) -> Iterator[None]:
    """Temporarily override any subset of the dispatch policy."""
    saved = dict(_STATE)
    try:
        if workers is not None:
            set_workers(workers)
        if chunk is not None:
            set_stream_chunk(chunk)
        if condition_workers is not None:
            set_condition_workers(condition_workers)
        if budget is not None:
            set_worker_budget(budget)
        yield
    finally:
        _STATE.update(saved)


def describe() -> Dict[str, Any]:
    """Snapshot of the live policy (for bench metadata / debugging)."""
    return {
        "workers": get_workers(),
        "effective_workers": effective_workers(),
        "stream_chunk": get_stream_chunk(),
        "condition_workers": get_condition_workers(),
        "effective_condition_workers": effective_condition_workers(),
        "worker_budget": get_worker_budget(),
        "effective_budget": effective_budget(),
        "cpu_count": _CPU_COUNT,
    }


# ----------------------------------------------------------------------
# the condition-axis thread pool
# ----------------------------------------------------------------------
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _condition_pool() -> ThreadPoolExecutor:
    """The persistent, lazily-created condition-axis executor.

    Sized once to the CPU count (the most threads that could ever help);
    the *live* concurrency of a fan-out is bounded by how many tasks
    :func:`map_conditions` keeps in flight, so policy changes never
    force a pool rebuild.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=_CPU_COUNT, thread_name_prefix="repro-cond"
            )
        return _POOL


def map_conditions(fn: Callable[[int], Any], num_tasks: int) -> Iterator[Any]:
    """Yield ``fn(0) .. fn(num_tasks - 1)`` in index order: the one
    fan-out of independent blocks onto the condition pool.

    At most ``w = effective_condition_workers(num_tasks)`` tasks run at
    once; each runs with ``effective_budget() // w`` pocketfft workers
    (the unified-budget split) inside its own copy of the caller's
    ``contextvars`` context.  Results come back in index order, so the
    caller reduces them in a fixed order (and hence bitwise alike)
    whatever the thread count.  At most ``w + 1`` blocks are held —
    running, finished and awaiting their turn, or being reduced — so
    when a task finishes ahead of a slow head the next one starts
    instead of its thread idling; the window refills before each result
    is yielded.  A one-thread policy, a single task, or a call made
    *from* a pool thread (a nested fan-out would deadlock-wait on its own
    executor) runs inline on the caller's thread.

    No task outlives the iteration: when a task raises, or the consumer
    raises or stops early (closing the generator), the tasks still in
    flight are cancelled or waited for before the error propagates.
    """
    w = effective_condition_workers(num_tasks)
    if w <= 1 or num_tasks <= 1 or getattr(_TLS, "in_condition_pool", False):
        for i in range(num_tasks):
            yield fn(i)
        return
    fft_share = max(1, effective_budget() // w)

    def run(i: int) -> Any:
        _TLS.in_condition_pool = True
        _TLS.fft_workers = fft_share
        try:
            return fn(i)
        finally:
            _TLS.fft_workers = None
            _TLS.in_condition_pool = False

    pool = _condition_pool()

    def submit(i: int) -> "Future[Any]":
        # Pool threads outlive any one fan-out, so contextvars (notably
        # the repro.obs span parent chain) do not flow into them by
        # default: each task runs in a fresh copy of the caller's
        # context (a Context can host only one concurrent run).
        return pool.submit(contextvars.copy_context().run, run, i)

    # Blocks submitted and not yet yielded, in index order: at most
    # w + 1, and at most w of them not done.
    held: "collections.deque[Future[Any]]" = collections.deque()
    nxt = 0
    try:
        while held or nxt < num_tasks:
            running = [f for f in held if not f.done()]
            while nxt < num_tasks and len(held) <= w and len(running) < w:
                held.append(submit(nxt))
                running.append(held[-1])
                nxt += 1
            if not held[0].done():
                # Whichever finishes first frees a thread for the next block.
                wait(running, return_when=FIRST_COMPLETED)
                continue
            # Yielded straight from the future, and no reference here
            # keeps a block alive while the consumer reduces it.
            del running
            yield held.popleft().result()
    finally:
        for future in held:
            future.cancel()
        wait(held)


# ----------------------------------------------------------------------
# frequency reversal
# ----------------------------------------------------------------------
def freq_reverse(x: np.ndarray) -> np.ndarray:
    """Frequency reversal ``x(f) -> x(-f)`` on the last two axes.

    Index map ``i -> (-i) mod n`` in fftfreq layout: a conjugate
    pairing declares ``kernel_{s'} == freq_reverse(kernel_s)`` (for a
    real signal, ``FFT(x)(-f) = conj(FFT(x)(f))``).
    """
    return np.roll(x[..., ::-1, ::-1], shift=(1, 1), axis=(-2, -1))
