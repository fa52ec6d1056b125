"""DAC23-MILT-style baseline — multi-level Hopkins ILT [10].

"Efficient ILT via multi-level lithography simulation" (DAC'23) runs
inverse lithography coarse-to-fine: optimize the mask on a downsampled
grid (cheap simulations), then upsample and refine at progressively
finer resolutions.  We reproduce that algorithmic core on the Hopkins/
SOCS engine with the full process-window loss.  Coarse levels are only
used while they still satisfy the optical Nyquist criterion (a coarse
grid that cannot carry the 2*NA/lambda band would corrupt, not
accelerate, the simulation).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..opt import make_optimizer
from ..optics import OpticalConfig, ProcessWindow
from ..smo.mo_only import Callback, SolverLoop
from ..smo.objective import AdaptiveCornerWeights, HopkinsMOObjective
from ..smo.parametrization import init_theta_mask
from ..smo.state import SMOResult

__all__ = ["MultiLevelILT"]


class MultiLevelILT:
    """Coarse-to-fine Hopkins ILT with the SMO process-window loss.

    ``target`` may be a single ``(N, N)`` tile or a ``(B, N, N)`` stack;
    a stack runs every level on the whole batch at once (one fused
    ``incoherent_image`` node over the SOCS kernels per step) and
    records per-tile losses.

    ``process_window`` replaces the dose-only Eq. (9) loss with the
    robust dose x focus reduction at *every* level (focus corners are
    exact phase multiplies of each level's SOCS kernels — see
    :class:`repro.optics.HopkinsImaging`); ``robust`` / ``robust_tau``
    pick weighted-sum or smooth worst-case.
    """

    method_name = "DAC23-MILT"

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        source: np.ndarray,
        levels: int = 2,
        lr: float = 0.1,
        optimizer: str = "adam",
        num_kernels: Optional[int] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
    ):
        self.config = config
        self.target = np.asarray(target, dtype=np.float64)
        self.source = np.asarray(source, dtype=np.float64)
        self.optimizer = optimizer
        self.lr = lr
        self.num_kernels = num_kernels
        self.process_window = process_window
        self.robust = robust
        self.robust_tau = robust_tau
        # One minimax ascent shared across all refinement levels, so the
        # dual weights keep their state through each level's objective.
        self.adaptive_weights = AdaptiveCornerWeights.maybe(
            process_window or ProcessWindow.from_config(config),
            robust,
            robust_tau,
        )
        self.level_configs = self._valid_levels(config, levels)
        if process_window is not None and len(self.level_configs) > 1:
            # Raw phase maps are sampled on the native frequency grid
            # and cannot follow the coarse levels; fail up front with an
            # actionable message instead of deep inside condition_kernels.
            for ab in process_window.conditions():
                if ab.custom is not None:
                    raise ValueError(
                        "multi-level ILT cannot evaluate raw phase-map "
                        "aberrations on its coarse grids; use Zernike-"
                        "term specs (grid-independent) or levels=1"
                    )

    @staticmethod
    def _valid_levels(config: OpticalConfig, levels: int) -> List[OpticalConfig]:
        """Coarse-to-fine configs, dropping levels that undersample."""
        out: List[OpticalConfig] = []
        for lvl in range(levels - 1, -1, -1):
            size = config.mask_size // (2**lvl)
            cfg = config.with_(mask_size=size)
            try:
                cfg.validate_sampling()
            except ValueError:
                continue
            out.append(cfg)
        if not out or out[-1].mask_size != config.mask_size:
            raise ValueError("finest level must be the native grid")
        return out

    @staticmethod
    def _downsample_target(target: np.ndarray, size: int) -> np.ndarray:
        """Box-pool + re-binarize; batch dimensions pass through."""
        n = target.shape[-1]
        factor = n // size
        pooled = target.reshape(
            target.shape[:-2] + (size, factor, size, factor)
        ).mean(axis=(-3, -1))
        return (pooled >= 0.5).astype(np.float64)

    @staticmethod
    def _upsample_theta(theta: np.ndarray, factor: int) -> np.ndarray:
        return np.repeat(np.repeat(theta, factor, axis=-2), factor, axis=-1)

    def run(
        self,
        iterations: int = 50,
        callback: Optional[Callback] = None,
    ) -> SMOResult:
        """Split ``iterations`` across levels (coarse levels get fewer).

        A truthy ``callback`` return stops the solve immediately —
        breaking out of both the iteration and the level loop; the
        iterate is still returned on the native grid."""
        loop = SolverLoop(self.method_name, callback)
        n_levels = len(self.level_configs)
        per_level = max(1, iterations // n_levels)
        theta: Optional[np.ndarray] = None
        for li, cfg in enumerate(self.level_configs):
            if loop.stopped:
                break
            tgt = self._downsample_target(self.target, cfg.mask_size)
            if theta is None:
                theta = init_theta_mask(tgt, cfg)
            else:
                theta = self._upsample_theta(
                    theta, cfg.mask_size // theta.shape[-1]
                )
            # The per-level engine resolves through the optics cache, so a
            # harness sweep re-running MILT on many clips decomposes each
            # level's TCC once instead of once per clip.
            objective = HopkinsMOObjective(
                cfg,
                tgt,
                self.source,
                self.num_kernels,
                window=self.process_window,
                robust=self.robust,
                robust_tau=self.robust_tau,
                adaptive_weights=self.adaptive_weights,
            )
            iters = per_level if li < n_levels - 1 else iterations - per_level * (n_levels - 1)
            theta = loop.descend(
                iters,
                "mo",
                theta,
                objective.loss,
                make_optimizer(self.optimizer, self.lr),
                objective,
                # Losses at coarse levels are on fewer pixels; scale to
                # the native grid so the convergence trace is comparable.
                scale=(self.config.mask_size / cfg.mask_size) ** 2,
            )
        theta = self._upsample_theta(
            theta, self.config.mask_size // theta.shape[-1]
        )
        return loop.result(theta, None)
