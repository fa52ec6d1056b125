"""Deterministic fault injection at named points in the codebase.

The resilience layer of the harness (:mod:`repro.harness.resilience`)
is only trustworthy if its failure paths are *exercised*: worker death,
out-of-memory, stuck cells.  Real faults are nondeterministic, so this
module provides the opposite — a **plan** of faults that fire at exact,
reproducible moments.  Library code marks interesting locations with
:func:`fault_point`; with no plan installed the call is a dictionary
lookup and a ``None`` check (safe on hot-ish paths), and with a plan it
consults the spec list for that point.

Plans come from the ``REPRO_FAULT_PLAN`` environment variable (so they
propagate into harness worker processes automatically) or from
:func:`install_plan` in tests.  Grammar — entries separated by ``;``,
fields of one entry separated by ``|``::

    point@N=action[:arg][|fuse=PATH]
    point?P=action[:arg][|seed=K][|fuse=PATH]

* ``point`` — a registered name like ``harness.run_cell``.
* ``@N`` — fire on exactly the N-th visit (1-based) of this point *in
  this process*; ``@N+`` fires on the N-th and every later visit.
* ``?P`` — seeded probabilistic mode: fire each visit with probability
  ``P``, drawn from :func:`repro.utils.seed.seeded_rng` keyed on
  ``(seed, point)`` so a given plan replays the identical fault
  sequence every run.
* ``action`` — ``kill`` (``os._exit(KILL_EXIT_CODE)``, simulating a
  segfault/OOM-killed worker), ``raise:ExcName`` (raise one of
  ``MemoryError``/``RuntimeError``/``ValueError``/``OSError``/
  ``TimeoutError``), or ``delay:SECONDS`` (sleep, for timeout tests).
* ``fuse=PATH`` — single-shot across a whole *process tree*: the first
  process to trigger atomically creates ``PATH`` and fires; once the
  file exists the entry never fires again anywhere.  Without a fuse,
  hit counters are per-process, so a replacement worker replays the
  plan from scratch.

Example: kill the worker running the second harness cell, once::

    REPRO_FAULT_PLAN="harness.run_cell@2=kill|fuse=/tmp/f1"

Registered fault points (kept in sync with :func:`fault_point`
call sites): ``harness.worker_warmup``, ``harness.run_cell``,
``cache.warmup``, ``fftlib.stream_chunk``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .seed import seeded_rng

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultError",
    "KILL_EXIT_CODE",
    "KNOWN_POINTS",
    "parse_plan",
    "install_plan",
    "active_plan",
    "clear_plan",
    "reload_from_env",
    "fault_point",
]

#: Exit status of a ``kill`` action — distinctive so tests can assert a
#: planned death rather than a genuine crash.
KILL_EXIT_CODE = 43

#: Fault points the library currently visits (documentation + the
#: parser rejects typos against this registry).
KNOWN_POINTS: Tuple[str, ...] = (
    "harness.worker_warmup",
    "harness.run_cell",
    "cache.warmup",
    "fftlib.stream_chunk",
)

_RAISABLE: Dict[str, type] = {
    "MemoryError": MemoryError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "OSError": OSError,
    "TimeoutError": TimeoutError,
}

_ACTIONS = ("kill", "raise", "delay")


class FaultError(ValueError):
    """A malformed ``REPRO_FAULT_PLAN`` spec."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed plan entry."""

    point: str
    action: str  # "kill" | "raise" | "delay"
    arg: str = ""  # exception name or sleep seconds
    hit: int = 1  # 1-based visit number (hit-count mode)
    persistent: bool = False  # "@N+": fire from the N-th visit onward
    probability: Optional[float] = None  # "?P": seeded probabilistic mode
    seed: int = 0
    fuse: str = ""  # single-shot marker file across a process tree

    def fires_on(self, visit: int, rng_draw: Optional[float]) -> bool:
        """Whether this spec fires on the given 1-based visit."""
        if self.probability is not None:
            return rng_draw is not None and rng_draw < self.probability
        if self.persistent:
            return visit >= self.hit
        return visit == self.hit


def _parse_entry(entry: str) -> FaultSpec:
    fields = [f.strip() for f in entry.split("|")]
    head = fields[0]
    fuse = ""
    seed = 0
    for extra in fields[1:]:
        key, sep, value = extra.partition("=")
        if not sep:
            raise FaultError(f"malformed plan field {extra!r} in {entry!r}")
        if key == "fuse":
            fuse = value
        elif key == "seed":
            seed = int(value)
        else:
            raise FaultError(f"unknown plan field {key!r} in {entry!r}")
    trigger, sep, action_text = head.partition("=")
    if not sep:
        raise FaultError(f"missing '=action' in plan entry {entry!r}")
    probability: Optional[float] = None
    hit, persistent = 1, False
    if "?" in trigger:
        point, _, prob_text = trigger.partition("?")
        try:
            probability = float(prob_text)
        except ValueError as exc:
            raise FaultError(f"bad probability in {entry!r}") from exc
        if not 0.0 <= probability <= 1.0:
            raise FaultError(f"probability out of [0, 1] in {entry!r}")
    elif "@" in trigger:
        point, _, hit_text = trigger.partition("@")
        persistent = hit_text.endswith("+")
        try:
            hit = int(hit_text.rstrip("+"))
        except ValueError as exc:
            raise FaultError(f"bad hit count in {entry!r}") from exc
        if hit < 1:
            raise FaultError(f"hit count must be >= 1 in {entry!r}")
    else:
        point = trigger
    point = point.strip()
    if point not in KNOWN_POINTS:
        raise FaultError(
            f"unknown fault point {point!r}; known points: {KNOWN_POINTS}"
        )
    action, _, arg = action_text.partition(":")
    action = action.strip()
    if action not in _ACTIONS:
        raise FaultError(
            f"unknown action {action!r} in {entry!r}; choose from {_ACTIONS}"
        )
    if action == "raise":
        if arg not in _RAISABLE:
            raise FaultError(
                f"unknown exception {arg!r} in {entry!r}; "
                f"choose from {sorted(_RAISABLE)}"
            )
    elif action == "delay":
        try:
            float(arg)
        except ValueError as exc:
            raise FaultError(f"bad delay seconds in {entry!r}") from exc
    elif arg:
        raise FaultError(f"action 'kill' takes no argument (got {entry!r})")
    return FaultSpec(
        point=point,
        action=action,
        arg=arg,
        hit=hit,
        persistent=persistent,
        probability=probability,
        seed=seed,
        fuse=fuse,
    )


def parse_plan(text: str) -> "FaultPlan":
    """Parse a ``REPRO_FAULT_PLAN`` string into a :class:`FaultPlan`."""
    specs: List[FaultSpec] = []
    for entry in text.split(";"):
        entry = entry.strip()
        if entry:
            specs.append(_parse_entry(entry))
    return FaultPlan(specs)


class FaultPlan:
    """A parsed plan plus this process's per-point visit counters."""

    def __init__(self, specs: List[FaultSpec]) -> None:
        self.specs = list(specs)
        self._counters: Dict[str, int] = {}
        self._rngs: Dict[str, "object"] = {}
        self._lock = threading.Lock()

    def _claim_fuse(self, path: str) -> bool:
        """Atomically claim a single-shot fuse file; False if burnt."""
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return True

    def visit(self, point: str) -> None:
        """Record one visit of ``point`` and fire any matching spec."""
        with self._lock:
            visit = self._counters.get(point, 0) + 1
            self._counters[point] = visit
            draws: Dict[int, float] = {}
            for i, spec in enumerate(self.specs):
                if spec.point == point and spec.probability is not None:
                    key = f"{spec.seed}:{point}"
                    rng = self._rngs.setdefault(
                        key, seeded_rng(spec.seed, point)
                    )
                    draws[i] = float(rng.random())  # type: ignore[attr-defined]
        for i, spec in enumerate(self.specs):
            if spec.point != point:
                continue
            if not spec.fires_on(visit, draws.get(i)):
                continue
            if spec.fuse and not self._claim_fuse(spec.fuse):
                continue
            self._fire(spec)

    def _fire(self, spec: FaultSpec) -> None:
        if spec.action == "kill":
            os._exit(KILL_EXIT_CODE)
        if spec.action == "raise":
            raise _RAISABLE[spec.arg](
                f"injected {spec.arg} at {spec.point!r} (REPRO_FAULT_PLAN)"
            )
        # "delay": parser validated the float
        time.sleep(float(spec.arg))


#: Module-level plan state.  ``_UNSET`` marks "env not parsed yet" so the
#: first :func:`fault_point` call lazily reads ``REPRO_FAULT_PLAN`` —
#: harness worker processes therefore pick the plan up on their first
#: visited point with zero configuration.
_UNSET = object()
_PLAN: object = _UNSET
_PLAN_LOCK = threading.Lock()


def reload_from_env() -> Optional[FaultPlan]:
    """(Re)parse ``REPRO_FAULT_PLAN`` from the environment."""
    global _PLAN
    text = os.environ.get("REPRO_FAULT_PLAN", "").strip()
    with _PLAN_LOCK:
        _PLAN = parse_plan(text) if text else None
        return _PLAN  # type: ignore[return-value]


def install_plan(text: Optional[str]) -> Optional[FaultPlan]:
    """Install a plan programmatically (``None`` disables injection)."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = parse_plan(text) if text else None
        return _PLAN  # type: ignore[return-value]


def clear_plan() -> None:
    """Disable fault injection and forget the cached env parse."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = None


def active_plan() -> Optional[FaultPlan]:
    """The live plan, lazily parsed from the environment once."""
    global _PLAN
    if _PLAN is _UNSET:
        return reload_from_env()
    return _PLAN  # type: ignore[return-value]


def fault_point(name: str) -> None:
    """Mark a named fault point; fires the active plan's matching specs.

    No-plan calls cost one attribute read and an identity check.  Tests
    install a plan (env or :func:`install_plan`) to kill the process,
    raise, or sleep here on a chosen visit.
    """
    plan = _PLAN
    if plan is _UNSET:
        plan = active_plan()
    if plan is None:
        return
    plan.visit(name)  # type: ignore[union-attr]
