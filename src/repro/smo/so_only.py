"""Source-only optimization (SO) with the mask held fixed.

SO is only possible with Abbe's model (the paper's core observation:
Hopkins bakes the source into the TCC).  Used standalone and as the
inner phase of AM-SMO.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import autodiff as ad
from ..opt import make_optimizer
from ..optics import OpticalConfig
from .mo_only import Callback, SolverLoop
from .objective import ProcessWindowSMOObjective
from .state import SMOResult

__all__ = ["SourceOptimizer"]


class SourceOptimizer:
    """Gradient-based SO: minimize L_so over theta_J with theta_M fixed.

    A ``(B, N, N)`` target stack optimizes one shared source against a
    fixed ``theta_M`` batch (the joint SO that motivates multi-clip SMO);
    records then carry per-tile losses.  An objective built with
    ``robust="adaptive"`` EG-steps its corner weights once per iteration
    and records them, as every other solver does.
    """

    method_name = "SO"

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        lr: float = 0.1,
        optimizer: str = "sgd",
        objective: Optional[ProcessWindowSMOObjective] = None,
    ):
        self.config = config
        self.objective = objective or ProcessWindowSMOObjective(config, target)
        self._opt = make_optimizer(optimizer, lr)

    def run(
        self,
        theta_m: np.ndarray,
        theta_j0: np.ndarray,
        iterations: int = 30,
        callback: Optional[Callback] = None,
    ) -> SMOResult:
        theta_j = np.array(theta_j0, dtype=np.float64, copy=True)
        tm_fixed = ad.Tensor(theta_m)
        self._opt.reset()
        loop = SolverLoop(self.method_name, callback)
        theta_j = loop.descend(
            iterations,
            "so",
            theta_j,
            lambda tj: self.objective.loss(tj, tm_fixed),
            self._opt,
            self.objective,
        )
        return loop.result(np.array(theta_m, copy=True), theta_j)
