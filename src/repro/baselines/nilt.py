"""NILT-style baseline — stand-in for Neural-ILT [7].

Neural-ILT couples a neural backbone with Hopkins-model ILT refinement
and optimizes nominal printability (no process-window term).  The
neural backbone cannot be reproduced offline (no training data or
torch); its *algorithmic role* — producing a quick printability-driven
mask from a Hopkins forward model — is played here by plain Hopkins ILT
minimizing the nominal L2 loss only.  As in the paper's Table 3/4, this
baseline lands clearly behind the process-window-aware methods, for the
same structural reason: truncated SOCS + no PVB objective.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import autodiff as ad
from ..obs import observe_iteration
from ..obs import span as obs_span
from ..opt import make_optimizer
from ..utils.timing import tick
from ..optics import OpticalConfig, ProcessCorner, ProcessWindow, engine_for
from ..smo.objective import (
    AdaptiveCornerWeights,
    adaptive_corner_update,
    live_corner_weights,
    robust_tile_losses,
    windowed_corner_loss,
)
from ..smo.parametrization import init_theta_mask, mask_from_theta
from ..smo.state import IterationRecord, SMOResult

__all__ = ["NILTBaseline"]


class NILTBaseline:
    """Hopkins ILT on the nominal-dose L2 objective only.

    ``target`` may be a single ``(N, N)`` tile or a ``(B, N, N)`` stack;
    a stack optimizes the whole mask batch jointly through the engine's
    fused multi-tile forward — one ``incoherent_image`` node over the
    SOCS kernel stack per step — with per-tile losses in every record.

    The loss runs through the shared window path with a one-corner
    nominal window at weight ``gamma``: ``gamma * || Z_nom - Z_t ||^2``.
    ``process_window`` turns it into *robust printability*: the same
    per-corner L2 terms reduced across the dose x focus grid (corner
    weights are absolute — no extra ``gamma`` factor).  It remains
    structurally NILT: no PVB term, just printability evaluated at every
    corner instead of the nominal condition alone.
    """

    method_name = "NILT"

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
        self.target = ad.Tensor(np.asarray(target, dtype=np.float64))
        self.num_tiles = self.target.shape[0] if self.target.ndim == 3 else 1
        # Shared SOCS engine from the optics cache: repeated NILT runs on
        # one (config, source) pair decompose the TCC exactly once.
        self.engine = engine_for(config, "hopkins", source=source, num_kernels=num_kernels)
        self._opt = make_optimizer(optimizer, lr)
        self.window = process_window or ProcessWindow(
            (ProcessCorner(1.0, 0.0, config.gamma, "nominal"),)
        )
        self.robust = robust
        self.robust_tau = float(robust_tau)
        self._last_tile_losses: Optional[np.ndarray] = None
        #: ``(C, B)`` corner matrix of the latest evaluation.
        self.last_corner_losses: Optional[np.ndarray] = None
        #: Live minimax corner weights (``robust="adaptive"`` only).
        self.adaptive_weights = AdaptiveCornerWeights.maybe(
            self.window, robust, self.robust_tau
        )

    def _robust_weights(self) -> Optional[np.ndarray]:
        return live_corner_weights(self.adaptive_weights)

    def _loss(self, theta_m: ad.Tensor) -> ad.Tensor:
        total, matrix = windowed_corner_loss(
            self.engine,
            self.config,
            mask_from_theta(theta_m, self.config),
            self.target,
            self.window,
            self.robust,
            self.robust_tau,
            weights=self._robust_weights(),
        )
        self.last_corner_losses = matrix
        if self.target.ndim == 3:  # any stack, including B=1
            self._last_tile_losses = robust_tile_losses(
                matrix, self.window, self.robust, self.robust_tau,
                weights=self._robust_weights(),
            )
        return total

    def run(
        self,
        iterations: int = 50,
        theta_m0: Optional[np.ndarray] = None,
        callback: Optional[Callable[[IterationRecord], Optional[bool]]] = None,
    ) -> SMOResult:
        theta_m = (
            init_theta_mask(self.target.data, self.config)
            if theta_m0 is None
            else np.array(theta_m0, dtype=np.float64, copy=True)
        )
        self._opt.reset()
        history = []
        start = tick()
        for it in range(iterations):
            t0 = tick()
            with obs_span(
                "solver.iter", solver=self.method_name, iteration=it
            ):
                tm = ad.Tensor(theta_m, requires_grad=True)
                loss = self._loss(tm)
                (gm,) = ad.grad(loss, [tm])
                tiles = self._last_tile_losses
                theta_m = self._opt.step(theta_m, gm.data)
                corner_w = adaptive_corner_update(self)
            rec = IterationRecord(
                it,
                float(loss.data),
                tick() - t0,
                "mo",
                tile_losses=tiles,
                corner_weights=corner_w,
            )
            observe_iteration(rec, grad=gm)
            history.append(rec)
            if callback and callback(rec):
                break
        return SMOResult(
            method=self.method_name,
            theta_m=theta_m,
            theta_j=None,
            history=history,
            runtime_seconds=tick() - start,
        )
