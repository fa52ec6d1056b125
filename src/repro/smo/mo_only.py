"""The one solver loop, and the mask-only (MO / ILT) solvers on it.

:class:`SolverLoop` is the iteration every solver in this package and in
:mod:`repro.baselines` runs: it owns the clock, the ``solver.iter``
span, the :class:`IterationRecord`, :func:`repro.obs.observe_iteration`,
the history, the callback stop and the final :class:`SMOResult`.
Solvers supply only how one iteration computes its step —
:meth:`SolverLoop.descend` for a plain gradient step on one parameter
(MO, SO, both AM-SMO phases, every MILT level), or their own body
through :meth:`SolverLoop.run` (BiSMO's hypergradient iterations).

Two engines, one loop:

* :class:`AbbeMO` — the paper's "Abbe-MO": lossless Abbe imaging with a
  fixed source, mask parameters optimized by gradient descent/Adam.
* :class:`HopkinsMO` — conventional SOCS-truncated ILT (the substrate of
  the NILT / DAC23-MILT comparators).

Both minimize the same process-window loss (Eq. (9); by default the
paper's Eq. (8) window) with the source held fixed, so their gap
isolates the Hopkins truncation error discussed in Section 4.1.  Both
ride their engine's fused ``incoherent_image_stack`` forward (streamed,
hand-written VJP), single-tile or batched.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple, TypeVar

import numpy as np

from .. import autodiff as ad
from ..obs import observe_iteration
from ..obs import span as obs_span
from ..opt import Optimizer, make_optimizer
from ..utils.timing import tick
from ..optics import OpticalConfig, ProcessWindow
from .objective import (
    HopkinsMOObjective,
    ProcessWindowSMOObjective,
    adaptive_corner_update,
)
from .parametrization import init_theta_mask, init_theta_source
from .state import IterationRecord, SMOResult

__all__ = ["SolverLoop", "AbbeMO", "HopkinsMO"]

#: Per-iteration observer; a truthy return stops the solve after that
#: iteration, ``None`` lets it run on.
Callback = Callable[[IterationRecord], Optional[bool]]

S = TypeVar("S")
#: One iteration: ``body(state)`` returns ``(state, loss, grad,
#: tile_losses, corner_weights)`` — the next state, then what the
#: iteration's record carries and the gradient its metrics take a norm
#: of.
Body = Callable[[S], Tuple[S, float, Any, Optional[np.ndarray], Optional[np.ndarray]]]


class SolverLoop:
    """The one solver iteration, written once.

    Create one per solve; iterations are numbered across every
    :meth:`run` / :meth:`descend` call, so multi-phase solvers (AM-SMO's
    alternation, MILT's levels) get one continuous history.  Once the
    callback asks to stop, :attr:`stopped` is set and every later call
    returns its state unchanged.
    """

    def __init__(self, method: str, callback: Optional[Callback] = None):
        self.method = method
        self.callback = callback
        self.history: List[IterationRecord] = []
        self.stopped = False
        self._start = tick()

    def run(self, steps: int, phase: str, body: Body[S], state: S) -> S:
        """Up to ``steps`` iterations of ``body``, each timed, traced,
        recorded under ``phase`` and offered to the callback."""
        for _ in range(steps):
            if self.stopped:
                break
            it = len(self.history)
            t0 = tick()
            with obs_span("solver.iter", solver=self.method, iteration=it):
                state, loss, grad, tiles, corner_w = body(state)
            rec = IterationRecord(
                it,
                float(loss),
                tick() - t0,
                phase,
                tile_losses=tiles,
                corner_weights=corner_w,
            )
            observe_iteration(rec, grad=grad)
            self.history.append(rec)
            self.stopped = bool(self.callback and self.callback(rec))
        return state

    def descend(
        self,
        steps: int,
        phase: str,
        theta: np.ndarray,
        loss_fn: Callable[[ad.Tensor], ad.Tensor],
        opt: Optimizer,
        objective: Any,
        scale: float = 1.0,
    ) -> np.ndarray:
        """Up to ``steps`` gradient steps on one parameter; returns the
        last iterate.

        Each iteration makes ``theta`` a leaf, evaluates ``loss_fn`` on
        it, differentiates, reads the per-tile losses ``objective``
        stashed, steps ``opt`` and EG-steps the objective's adaptive
        corner weights (:func:`adaptive_corner_update`; ``None`` when
        it has none).  ``scale`` multiplies the recorded loss and tile
        losses (MILT's coarse levels, which see fewer pixels).
        """

        def body(theta: np.ndarray):
            leaf = ad.Tensor(theta, requires_grad=True)
            loss = loss_fn(leaf)
            (grad,) = ad.grad(loss, [leaf])
            tiles = getattr(objective, "last_tile_losses", None)
            theta = opt.step(theta, grad.data)
            return (
                theta,
                float(loss.data) * scale,
                grad,
                None if tiles is None else tiles * scale,
                adaptive_corner_update(objective),
            )

        return self.run(steps, phase, body, theta)

    def result(
        self, theta_m: np.ndarray, theta_j: Optional[np.ndarray], **extra: float
    ) -> SMOResult:
        """The solve's :class:`SMOResult`: the final parameters, the
        history and the seconds since the loop was created."""
        return SMOResult(
            method=self.method,
            theta_m=theta_m,
            theta_j=theta_j,
            history=self.history,
            runtime_seconds=tick() - self._start,
            extra=extra,
        )


class _MaskOnly:
    """A fixed-source MO solve: gradient steps on ``theta_M`` alone.

    Subclasses set ``config``, ``target``, ``objective`` and ``_opt``
    and define the loss of ``theta_M``."""

    method_name: str

    def _loss(self, theta_m: ad.Tensor) -> ad.Tensor:
        raise NotImplementedError

    def _theta_j(self) -> Optional[np.ndarray]:
        return None

    def run(
        self,
        iterations: int = 50,
        theta_m0: Optional[np.ndarray] = None,
        callback: Optional[Callback] = None,
    ) -> SMOResult:
        theta_m = (
            init_theta_mask(self.target, self.config)
            if theta_m0 is None
            else np.array(theta_m0, dtype=np.float64, copy=True)
        )
        self._opt.reset()
        loop = SolverLoop(self.method_name, callback)
        theta_m = loop.descend(
            iterations, "mo", theta_m, self._loss, self._opt, self.objective
        )
        return loop.result(theta_m, self._theta_j())


class AbbeMO(_MaskOnly):
    """Abbe-model inverse lithography with a fixed source.

    ``target`` may be a single ``(N, N)`` tile or a ``(B, N, N)`` stack;
    a stack optimizes a ``theta_M`` batch jointly through the fused
    multi-tile forward, and records carry per-tile losses.

    The loss is the robust dose x aberration reduction across
    ``process_window`` (:class:`ProcessWindowSMOObjective`; ``None`` is
    the paper's Eq. (8) window); ``robust`` / ``robust_tau`` pick
    weighted-sum, smooth worst-case, or the adaptive minimax ascent —
    ``robust="adaptive"`` EG-steps the corner weights once per iteration
    and stashes the trajectory in the records.
    """

    method_name = "Abbe-MO"

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        source: np.ndarray,
        lr: float = 0.1,
        optimizer: str = "adam",
        objective: Optional[ProcessWindowSMOObjective] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
    ):
        self.config = config
        target = np.asarray(target, dtype=np.float64)
        self.objective = objective or ProcessWindowSMOObjective(
            config, target, process_window, robust=robust, tau=robust_tau
        )
        self._theta_j_fixed = ad.Tensor(init_theta_source(source, config))
        self._opt = make_optimizer(optimizer, lr)
        self.target = target

    def _loss(self, theta_m: ad.Tensor) -> ad.Tensor:
        return self.objective.loss(self._theta_j_fixed, theta_m)

    def _theta_j(self) -> Optional[np.ndarray]:
        return self._theta_j_fixed.data.copy()


class HopkinsMO(_MaskOnly):
    """SOCS-truncated Hopkins ILT with a fixed source (MO baseline).

    Accepts a ``(B, N, N)`` target stack for joint batched ILT (the
    Hopkins objective fuses the batch into one SOCS FFT stack).
    ``process_window=None`` is the class's default window — the paper's
    Eq. (8) window here, the nominal corner alone for
    :class:`repro.baselines.NILTBaseline`.
    """

    method_name = "Hopkins-MO"

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        source: np.ndarray,
        lr: float = 0.1,
        optimizer: str = "adam",
        num_kernels: Optional[int] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
    ):
        self.config = config
        self.objective = HopkinsMOObjective(
            config,
            target,
            source,
            num_kernels,
            window=process_window or self._default_window(config),
            robust=robust,
            robust_tau=robust_tau,
        )
        self._opt = make_optimizer(optimizer, lr)
        self.target = target

    @staticmethod
    def _default_window(config: OpticalConfig) -> Optional[ProcessWindow]:
        return None  # the objective's: ProcessWindow.from_config

    def _loss(self, theta_m: ad.Tensor) -> ad.Tensor:
        return self.objective.loss(theta_m)
