"""Fault-tolerant harness execution: checkpoint journal, retry, watchdog.

``run_matrix(workers=N)`` shards deterministic cells over a
``ProcessPoolExecutor`` — and before this module existed, one OOM-killed
worker lost the whole sweep, and a crash at cell 199/200 of a paper-scale
run restarted from zero.  Because every cell is a *pure function* of
(method, clip, settings), all of that is recoverable:

* **Checkpoint journal** — completed cells are appended to a JSONL file
  as their futures finish, each line flushed and fsynced so a crash can
  tear at most the line being written (torn tails are ignored on load).
  Re-running with the same journal skips completed cells and reassembles
  the records in exactly the submission order, byte-identical to an
  uninterrupted run.
* **Retry with classification** — transient faults (a broken pool,
  ``MemoryError``, OS-level hiccups) are retried with exponential
  backoff and deterministic seeded jitter; a *deterministic* solver
  exception is retried once (to rule out environment noise) and then
  recorded as a structured failure record so the rest of the sweep
  finishes.
* **Watchdog timeouts** — a per-cell wall-clock budget.  A pool task
  cannot be cancelled, so an overdue cell costs a pool kill + rebuild;
  innocent in-flight cells are resubmitted without being charged an
  attempt.
* **Graceful degradation** — after ``max_pool_rebuilds`` pool breakages
  the executor falls back to serial in-process execution of the
  remaining cells (timeouts cannot be enforced in-process and are
  disabled there).

The executor is generic over the record type: it takes the record
class, whose ``to_json``/``from_json`` round-trip records bitwise, and
a failure builder, and writes ``status``/``attempts``/``error`` on the
records itself.  Every harness sweep — the (method x clip) matrix and
the process-window report, serial or parallel — runs its cells through
it, so a failing cell is a ``status="failed"`` record, never an abort.
Worker death, OOM and delays are *injectable* on demand via
:mod:`repro.utils.faultinject`, which is how the tests drive every path
deterministically.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    Optional,
    Sequence,
    Union,
)

from .. import obs
from ..utils.seed import seeded_rng

__all__ = [
    "CellTimeout",
    "TRANSIENT_EXCEPTIONS",
    "classify_error",
    "RetryPolicy",
    "CellOutcome",
    "CellProgress",
    "CheckpointJournal",
    "JOURNAL_VERSION",
    "sweep_fingerprint",
    "execute_cells",
    "default_max_retries",
    "default_cell_timeout",
]

JOURNAL_VERSION = 1


# ----------------------------------------------------------------------
# env-var defaults (this module is a designated R2 raw reader)
# ----------------------------------------------------------------------
def _env_number(var: str, default: float, kind: type) -> Any:
    """``var`` as a ``kind`` (int or float) ``>= 0``, ``default`` when
    unset; a malformed value raises a ``ValueError`` naming the variable."""
    raw = os.environ.get(var, "").strip()
    if not raw:
        return default
    try:
        value = kind(raw)
    except ValueError:
        value = None
    if value is None or not value >= 0:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{var} must be {noun} >= 0; got {raw!r}")
    return value


def default_max_retries() -> int:
    """Per-cell retry budget: ``REPRO_MAX_RETRIES`` (default 2)."""
    return int(_env_number("REPRO_MAX_RETRIES", 2, int))


def default_cell_timeout() -> float:
    """Per-cell wall-clock budget: ``REPRO_CELL_TIMEOUT`` seconds (0 = off)."""
    return float(_env_number("REPRO_CELL_TIMEOUT", 0.0, float))


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------
class CellTimeout(RuntimeError):
    """Raised (synthetically, by the watchdog) for an overdue cell."""


#: Exception types worth retrying with the full budget: the fault lives
#: in the *environment* (dead worker, memory pressure, pipe hiccup), not
#: in the cell, so a retry on a fresh worker can genuinely succeed.
TRANSIENT_EXCEPTIONS = (BrokenExecutor, MemoryError, ConnectionError, EOFError, OSError)


def classify_error(exc: BaseException) -> str:
    """``"timeout"`` / ``"transient"`` / ``"deterministic"``.

    Deterministic exceptions (a solver ``ValueError``, a bad method
    name) will recur on every retry of a pure cell; they get one retry
    to rule out environmental coincidence, then a structured failure.
    """
    if isinstance(exc, CellTimeout):
        return "timeout"
    if isinstance(exc, TRANSIENT_EXCEPTIONS):
        return "transient"
    return "deterministic"


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + exponential backoff with deterministic jitter."""

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    jitter_seed: int = 0

    def retries_for(self, kind: str) -> int:
        """Transient/timeout faults get the full budget; deterministic
        failures fail fast after at most one retry."""
        if kind == "deterministic":
            return min(1, self.max_retries)
        return self.max_retries

    def backoff(self, cell_index: int, attempt: int) -> float:
        """Delay before retry number ``attempt`` of ``cell_index``.

        The jitter is drawn from a generator seeded on (seed, cell,
        attempt): two runs of the same sweep sleep identically, but
        simultaneous retries of different cells still de-synchronize.
        """
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.jitter <= 0.0:
            return base
        rng = seeded_rng(self.jitter_seed, "backoff", cell_index, attempt)
        return base * (1.0 + self.jitter * float(rng.random()))


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellProgress:
    """One structured progress event from the executor.

    Callers used to receive bare label strings, which made it impossible
    to distinguish "cell started" from "cell finished" or to recover the
    wall-clock cost of a cell without re-deriving it.  Every progress
    emission is now one of these; ``str()`` renders the human-readable
    line the CLI prints, so string-minded consumers keep working.

    ``status`` is one of ``"start"`` / ``"ok"`` / ``"failed"`` /
    ``"timeout"`` / ``"retry"`` / ``"info"``; ``seconds`` is the
    measured wall clock of the attempt (terminal events only, ``None``
    when unknown); ``attempts`` counts attempts so far including the one
    being reported; ``error`` carries the abbreviated exception text
    (or the free-form message for ``"info"`` events).
    """

    label: str
    status: str
    seconds: Optional[float] = None
    attempts: int = 0
    error: str = ""

    @property
    def terminal(self) -> bool:
        return self.status in ("ok", "failed", "timeout")

    def __str__(self) -> str:
        if self.status == "info":
            return self.error or self.label
        if self.status == "start":
            return self.label
        tail = f" {self.seconds:.2f}s" if self.seconds is not None else ""
        if self.status == "ok":
            return f"{self.label} [ok{tail}]"
        if self.status == "retry":
            return f"{self.label} [retry {self.attempts} after {self.error}]"
        return f"{self.label} [{self.status}: {self.error}]"


@dataclass
class CellOutcome:
    """Terminal state of one sweep cell."""

    index: int
    label: str
    status: str  # "ok" | "failed" | "timeout"
    attempts: int
    records: List[Any] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# ----------------------------------------------------------------------
# the crash-safe journal
# ----------------------------------------------------------------------
def sweep_fingerprint(labels: Sequence[str]) -> str:
    """Stable identity of a sweep: the ordered cell labels, hashed."""
    h = sha256()
    for label in labels:
        h.update(label.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


class CheckpointJournal:
    """Append-only JSONL checkpoint of completed sweep cells.

    Line 1 is a header carrying the journal version and the sweep
    fingerprint (hash of the ordered cell labels) — resuming against a
    *different* sweep raises instead of silently mixing records.  Every
    later line is one terminal cell outcome.  Appends are
    flush+fsync'ed, so a crash tears at most the line in progress; a
    torn final line is ignored on load.  Cells whose last entry is a
    failure are treated as *not done* — a resumed sweep re-runs them
    (the failure may have been environmental) and appends the fresh
    outcome, and the loader keeps the latest word per cell.

    The payload dialect is python's ``json`` (``NaN`` literals allowed),
    with doubles serialized via ``repr`` so records revive bitwise.
    """

    def __init__(self, path: Union[str, os.PathLike], labels: Sequence[str]):
        self.path = Path(path)
        self.labels = list(labels)
        self.fingerprint = sweep_fingerprint(self.labels)
        self.completed: Dict[int, Dict[str, Any]] = {}
        self._fh: Optional[IO[str]] = None
        had_header = self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        if not had_header:
            self._write_line(
                {
                    "journal": "repro-sweep",
                    "version": JOURNAL_VERSION,
                    "fingerprint": self.fingerprint,
                    "cells": len(self.labels),
                }
            )

    def _load(self) -> bool:
        if not self.path.exists() or self.path.stat().st_size == 0:
            return False
        lines = self.path.read_text(encoding="utf-8").splitlines()
        entries: List[Dict[str, Any]] = []
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn tail from a crash mid-append: ignore
                raise ValueError(
                    f"corrupt checkpoint journal {self.path} at line {i + 1}"
                )
        if not entries:
            return False
        header = entries[0]
        if not isinstance(header, dict) or header.get("journal") != "repro-sweep":
            raise ValueError(f"{self.path} is not a repro checkpoint journal")
        if header.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"journal version {header.get('version')} != {JOURNAL_VERSION}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"journal {self.path} belongs to a different sweep "
                f"(fingerprint {header.get('fingerprint')} != {self.fingerprint}); "
                "refusing to resume"
            )
        for entry in entries[1:]:
            idx = int(entry["cell"])
            if idx < 0 or idx >= len(self.labels):
                raise ValueError(f"journal cell index {idx} out of range")
            if entry.get("status") == "ok":
                self.completed[idx] = entry
            else:
                # a recorded failure is re-run on resume; forget any
                # stale success that can no longer be the latest word
                self.completed.pop(idx, None)
        return True

    def _write_line(self, obj: Dict[str, Any]) -> None:
        if self._fh is None:
            raise RuntimeError("journal is closed")
        self._fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, outcome: CellOutcome) -> None:
        """Journal one terminal cell outcome (atomic line append)."""
        self._write_line(
            {
                "cell": outcome.index,
                "label": outcome.label,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "error": outcome.error,
                "records": [rec.to_json() for rec in outcome.records],
            }
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# the resilient executor
# ----------------------------------------------------------------------
def _stop_pool(pool: Optional[ProcessPoolExecutor], kill: bool) -> None:
    """Shut a pool down, optionally terminating its workers first (the
    only way to preempt a running cell)."""
    if pool is None:
        return
    if kill:
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:  # a broken pool may refuse a clean shutdown
        pass


def _error_text(exc: BaseException, limit: int = 300) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return text[:limit]


def execute_cells(
    cells: Sequence[Any],
    labels: Sequence[str],
    run_one: Callable[[Any], List[Any]],
    record_type: Any,
    failure: Callable[[Any], List[Any]],
    *,
    workers: int = 1,
    pool_factory: Optional[Callable[[], ProcessPoolExecutor]] = None,
    policy: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, os.PathLike]] = None,
    progress: Optional[Callable[[CellProgress], None]] = None,
    max_pool_rebuilds: int = 3,
    poll_interval: float = 0.05,
) -> List[CellOutcome]:
    """Run every cell to a terminal outcome, in submission order.

    ``run_one`` maps a cell to its records.  Records carry writable
    ``status`` / ``attempts`` / ``error`` fields, which the executor sets
    on every terminal outcome, and a ``to_json`` method that
    ``record_type.from_json`` inverts bitwise (the journal's format).
    ``failure`` builds the NaN-metric record(s) standing in for a cell
    that exhausted its retries.

    ``run_one`` must be picklable when ``workers > 1`` (it is shipped to
    the pool).  Outcomes come back indexed like ``cells`` regardless of
    completion order, so callers preserve the serial record order
    bit-for-bit.  ``cell_timeout`` of ``None`` resolves from
    ``REPRO_CELL_TIMEOUT`` (``0`` disables); ``policy`` of ``None``
    resolves ``max_retries`` from ``REPRO_MAX_RETRIES``.

    With ``checkpoint`` set, completed cells found in the journal are
    *not* re-run, and every cell reaching a terminal state is journaled
    the moment its future finishes.

    ``progress`` receives structured :class:`CellProgress` events: a
    ``"start"`` event when a cell is first attempted, a terminal
    ``"ok"`` / ``"failed"`` / ``"timeout"`` event carrying the measured
    wall seconds and attempt count, ``"retry"`` events in between, and
    ``"info"`` events for executor-level announcements.  ``str(event)``
    renders the human-readable line.
    """
    n = len(cells)
    if len(labels) != n:
        raise ValueError(f"{n} cells but {len(labels)} labels")
    if policy is None:
        policy = RetryPolicy(max_retries=default_max_retries())
    timeout = default_cell_timeout() if cell_timeout is None else float(cell_timeout)
    outcomes: List[Optional[CellOutcome]] = [None] * n
    attempts = [0] * n

    journal: Optional[CheckpointJournal] = None
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint, labels)
        for idx, entry in journal.completed.items():
            records = [record_type.from_json(d) for d in entry["records"]]
            outcomes[idx] = CellOutcome(
                index=idx,
                label=labels[idx],
                status="ok",
                attempts=int(entry.get("attempts", 1)),
                records=records,
            )

    pending: List[int] = [i for i in range(n) if outcomes[i] is None]
    not_before: Dict[int, float] = {}

    def finish(outcome: CellOutcome) -> None:
        for rec in outcome.records:
            rec.status = outcome.status
            rec.attempts = outcome.attempts
            rec.error = outcome.error
        outcomes[outcome.index] = outcome
        if journal is not None:
            journal.append(outcome)

    def finish_ok(
        idx: int, records: List[Any], seconds: Optional[float] = None
    ) -> None:
        finish(CellOutcome(idx, labels[idx], "ok", attempts[idx], records))
        if progress:
            progress(
                CellProgress(
                    labels[idx], "ok", seconds=seconds, attempts=attempts[idx]
                )
            )

    def handle_cell_error(
        idx: int, exc: BaseException, seconds: Optional[float] = None
    ) -> None:
        """Schedule a retry, or record the structured failure."""
        kind = classify_error(exc)
        err = _error_text(exc)
        if kind == "timeout":
            obs.counter("harness.timeouts").inc()
        if attempts[idx] <= policy.retries_for(kind):
            not_before[idx] = time.monotonic() + policy.backoff(idx, attempts[idx])
            pending.append(idx)
            obs.counter("harness.retries").inc()
            if progress:
                progress(
                    CellProgress(
                        labels[idx],
                        "retry",
                        seconds=seconds,
                        attempts=attempts[idx],
                        error=type(exc).__name__,
                    )
                )
            return
        status = "timeout" if kind == "timeout" else "failed"
        obs.counter("harness.failures").inc()
        records = failure(cells[idx])
        finish(CellOutcome(idx, labels[idx], status, attempts[idx], records, err))
        if progress:
            progress(
                CellProgress(
                    labels[idx],
                    status,
                    seconds=seconds,
                    attempts=attempts[idx],
                    error=err,
                )
            )

    def run_serial(enforce_backoff: bool = True) -> None:
        """In-process execution of everything still pending (timeouts
        cannot be enforced against the calling process)."""
        while pending:
            pending.sort()
            idx = pending.pop(0)
            if enforce_backoff:
                delay = not_before.get(idx, 0.0) - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            attempts[idx] += 1
            if progress and attempts[idx] == 1:
                progress(CellProgress(labels[idx], "start", attempts=1))
            t0 = time.monotonic()
            try:
                records = run_one(cells[idx])
            except Exception as exc:
                handle_cell_error(idx, exc, seconds=time.monotonic() - t0)
            else:
                finish_ok(idx, records, seconds=time.monotonic() - t0)

    try:
        if workers <= 1 or pool_factory is None:
            run_serial()
        else:
            _run_parallel(
                cells,
                labels,
                run_one,
                pool_factory=pool_factory,
                workers=workers,
                timeout=timeout,
                pending=pending,
                not_before=not_before,
                attempts=attempts,
                outcomes=outcomes,
                finish_ok=finish_ok,
                handle_cell_error=handle_cell_error,
                run_serial=run_serial,
                progress=progress,
                max_pool_rebuilds=max_pool_rebuilds,
                poll_interval=poll_interval,
            )
    finally:
        if journal is not None:
            journal.close()
    final = [o for o in outcomes if o is not None]
    if len(final) != n:
        raise RuntimeError("executor finished with unresolved cells")
    return final


def _run_parallel(
    cells: Sequence[Any],
    labels: Sequence[str],
    run_one: Callable[[Any], List[Any]],
    *,
    pool_factory: Callable[[], ProcessPoolExecutor],
    workers: int,
    timeout: float,
    pending: List[int],
    not_before: Dict[int, float],
    attempts: List[int],
    outcomes: List[Optional[CellOutcome]],
    finish_ok: Callable[..., None],
    handle_cell_error: Callable[..., None],
    run_serial: Callable[[], None],
    progress: Optional[Callable[[CellProgress], None]],
    max_pool_rebuilds: int,
    poll_interval: float,
) -> None:
    """Pool scheduling loop: bounded in-flight window, watchdog, rebuilds.

    At most ``workers`` cells are in flight, so a submitted cell starts
    (nearly) immediately and its wall-clock deadline can be measured
    from submission.  Pool breakage does not charge an attempt to the
    in-flight victims — the killer is unidentifiable — and is bounded by
    ``max_pool_rebuilds``, after which execution degrades to serial.
    """
    in_flight: Dict[Future, int] = {}
    deadlines: Dict[Future, float] = {}
    started: Dict[Future, float] = {}
    pool: Optional[ProcessPoolExecutor] = None
    rebuilds = 0

    def requeue_in_flight() -> None:
        """Victims of a pool kill/breakage go back unattempted."""
        for fut, idx in in_flight.items():
            attempts[idx] -= 1
            pending.append(idx)
        in_flight.clear()
        deadlines.clear()
        started.clear()

    def pop_ready(now: float) -> Optional[int]:
        pending.sort()
        for i, idx in enumerate(pending):
            if not_before.get(idx, 0.0) <= now:
                return pending.pop(i)
        return None

    try:
        while pending or in_flight:
            now = time.monotonic()
            # -- fill the in-flight window ------------------------------
            broke = False
            while len(in_flight) < workers:
                idx = pop_ready(now)
                if idx is None:
                    break
                if pool is None:
                    pool = pool_factory()
                attempts[idx] += 1
                try:
                    fut = pool.submit(run_one, cells[idx])
                except BrokenExecutor:
                    attempts[idx] -= 1
                    pending.append(idx)
                    broke = True
                    break
                in_flight[fut] = idx
                started[fut] = time.monotonic()
                if timeout > 0:
                    deadlines[fut] = time.monotonic() + timeout
                if progress and attempts[idx] == 1:
                    progress(CellProgress(labels[idx], "start", attempts=1))
            if broke:
                requeue_in_flight()
                _stop_pool(pool, kill=False)
                pool = None
                rebuilds += 1
                obs.counter("harness.pool_rebuilds").inc()
                if rebuilds > max_pool_rebuilds:
                    break
                continue
            if not in_flight:
                if not pending:
                    break
                soonest = min(not_before.get(i, 0.0) for i in pending)
                time.sleep(max(0.0, soonest - time.monotonic()))
                continue
            # -- wait for completions ----------------------------------
            wait_for = poll_interval
            if deadlines:
                wait_for = min(
                    wait_for, max(0.0, min(deadlines.values()) - time.monotonic())
                )
            done, _ = wait(
                set(in_flight), timeout=wait_for, return_when=FIRST_COMPLETED
            )
            for fut in done:
                idx = in_flight.pop(fut)
                deadlines.pop(fut, None)
                t_start = started.pop(fut, None)
                elapsed = (
                    None if t_start is None else time.monotonic() - t_start
                )
                try:
                    records = fut.result()
                except BrokenExecutor:
                    # a worker died; this future is a victim or the
                    # killer — nobody can tell, so nobody is charged
                    attempts[idx] -= 1
                    pending.append(idx)
                    broke = True
                except Exception as exc:
                    handle_cell_error(idx, exc, seconds=elapsed)
                else:
                    finish_ok(idx, records, seconds=elapsed)
            if broke:
                requeue_in_flight()
                _stop_pool(pool, kill=False)
                pool = None
                rebuilds += 1
                obs.counter("harness.pool_rebuilds").inc()
                if rebuilds > max_pool_rebuilds:
                    break
                continue
            # -- watchdog: overdue cells cost a pool kill ---------------
            now = time.monotonic()
            overdue = [fut for fut, dl in deadlines.items() if dl <= now]
            if overdue:
                for fut in overdue:
                    idx = in_flight.pop(fut)
                    t_start = started.pop(fut, None)
                    deadlines.pop(fut, None)
                    handle_cell_error(
                        idx,
                        CellTimeout(
                            f"cell {labels[idx]!r} exceeded the "
                            f"{timeout:g}s wall-clock budget"
                        ),
                        seconds=(
                            None if t_start is None else now - t_start
                        ),
                    )
                requeue_in_flight()
                _stop_pool(pool, kill=True)
                pool = None
                obs.counter("harness.pool_rebuilds").inc()
                # a deliberate watchdog kill is not pool *failure*; it
                # does not count toward the degradation limit
    finally:
        _stop_pool(pool, kill=False)
    if pending:
        if progress:
            progress(
                CellProgress(
                    "",
                    "info",
                    error=(
                        f"[resilience] pool broke {rebuilds}x; degrading to "
                        f"serial in-process execution for "
                        f"{len(pending)} remaining cells"
                    ),
                )
            )
        run_serial()
