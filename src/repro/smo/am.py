"""AM-SMO — Algorithm 1: alternating-minimization SMO baselines.

Two published flavors are reproduced:

* ``"abbe-abbe"``  [12] — both SO and MO phases run on the Abbe model.
* ``"abbe-hopkins"`` [13] — SO on Abbe, MO on Hopkins/SOCS.  After every
  SO phase the TCC must be re-assembled and re-decomposed for the new
  source, which dominates this variant's runtime (the ~19.5x slowdown in
  Table 4).

The zigzag convergence the paper shows in Figure 3 comes directly from
this phase alternation; history records are tagged "so"/"mo" so the
figure harness can reproduce it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import autodiff as ad
from ..opt import make_optimizer
from ..utils.timing import tick
from ..optics import OpticalConfig, ProcessWindow
from .mo_only import Callback, SolverLoop
from .objective import HopkinsMOObjective, ProcessWindowSMOObjective
from .parametrization import init_theta_mask, init_theta_source, source_from_theta
from .state import SMOResult

__all__ = ["AMSMO"]


class AMSMO:
    """Alternating-minimization SMO (Algorithm 1).

    Parameters
    ----------
    target:
        Binary target image ``(N, N)``, or a ``(B, N, N)`` stack for
        joint multi-clip AM-SMO (one shared source, a ``theta_M``
        stack; both phases then ride the fused batched forward and
        records carry per-tile losses).
    mode:
        ``"abbe-abbe"`` or ``"abbe-hopkins"`` (MO engine choice).
    rounds:
        Number of SO->MO alternations (the ``k`` loop).
    so_steps / mo_steps:
        Gradient steps per phase ("local epochs" in Figure 2(a)).
    num_kernels:
        SOCS truncation for the Hopkins MO phase.
    objective:
        Optional pre-built SMO objective (single-tile or batched);
        overrides the default built from ``target``.
    process_window:
        The :class:`repro.optics.ProcessWindow` both phases alternate
        on (:class:`ProcessWindowSMOObjective` for the Abbe phases,
        :class:`HopkinsMOObjective` for the Hopkins MO phase); ``None``
        is the paper's Eq. (8) window.  ``robust`` / ``robust_tau``
        select the corner reduction.  Under
        ``robust="adaptive"`` one :class:`AdaptiveCornerWeights` ascent
        is shared across both phases (and across Hopkins TCC rebuilds),
        stepping once per recorded iteration.
    """

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        mode: str = "abbe-abbe",
        rounds: int = 4,
        so_steps: int = 10,
        mo_steps: int = 15,
        lr_so: float = 0.1,
        lr_mo: float = 0.1,
        so_optimizer: str = "sgd",
        mo_optimizer: str = "adam",
        num_kernels: Optional[int] = None,
        objective: Optional[ProcessWindowSMOObjective] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
    ):
        if mode not in ("abbe-abbe", "abbe-hopkins"):
            raise ValueError(f"unknown AM-SMO mode {mode!r}")
        self.config = config
        self.target = np.asarray(target, dtype=np.float64)
        self.mode = mode
        self.rounds = rounds
        self.so_steps = so_steps
        self.mo_steps = mo_steps
        self.so_optimizer = so_optimizer
        self.mo_optimizer = mo_optimizer
        self.lr_so = lr_so
        self.lr_mo = lr_mo
        self.num_kernels = num_kernels
        self.process_window = process_window
        self.robust = robust
        self.robust_tau = robust_tau
        self.objective = objective or ProcessWindowSMOObjective(
            config, self.target, process_window, robust=robust, tau=robust_tau
        )
        self.method_name = (
            "AM-SMO(Abbe-Abbe)" if mode == "abbe-abbe" else "AM-SMO(Abbe-Hopkins)"
        )

    # ------------------------------------------------------------------
    def run(
        self,
        source_template: np.ndarray,
        theta_m0: Optional[np.ndarray] = None,
        theta_j0: Optional[np.ndarray] = None,
        callback: Optional[Callback] = None,
    ) -> SMOResult:
        cfg = self.config
        theta_m = (
            init_theta_mask(self.target, cfg)
            if theta_m0 is None
            else np.array(theta_m0, dtype=np.float64, copy=True)
        )
        theta_j = (
            init_theta_source(source_template, cfg)
            if theta_j0 is None
            else np.array(theta_j0, dtype=np.float64, copy=True)
        )
        loop = SolverLoop(self.method_name, callback)
        tcc_seconds = 0.0
        for _ in range(self.rounds):
            # ---- SO phase (theta_M fixed) — Algorithm 1 line 3 --------
            tm_fixed = ad.Tensor(theta_m)
            theta_j = loop.descend(
                self.so_steps,
                "so",
                theta_j,
                lambda tj: self.objective.loss(tj, tm_fixed),
                make_optimizer(self.so_optimizer, self.lr_so),
                self.objective,
            )
            if loop.stopped:  # a callback stop ends every phase
                break
            # ---- MO phase (theta_J fixed) — Algorithm 1 line 5 --------
            opt_m = make_optimizer(self.mo_optimizer, self.lr_mo)
            if self.mode == "abbe-hopkins":
                with ad.no_grad():
                    source = source_from_theta(ad.Tensor(theta_j), cfg).data
                t0 = tick()
                hop = HopkinsMOObjective(
                    cfg,
                    self.target,
                    source,
                    self.num_kernels,
                    window=self.process_window,
                    robust=self.robust,
                    robust_tau=self.robust_tau,
                    # Share the minimax dual variable across phases and
                    # TCC rebuilds (robust="adaptive" only; None otherwise).
                    adaptive_weights=getattr(
                        self.objective, "adaptive_weights", None
                    ),
                )
                tcc_seconds += tick() - t0
                theta_m = loop.descend(
                    self.mo_steps, "mo", theta_m, hop.loss, opt_m, hop
                )
            else:
                tj_fixed = ad.Tensor(theta_j)
                theta_m = loop.descend(
                    self.mo_steps,
                    "mo",
                    theta_m,
                    lambda tm: self.objective.loss(tj_fixed, tm),
                    opt_m,
                    self.objective,
                )
        return loop.result(theta_m, theta_j, tcc_seconds=tcc_seconds)
