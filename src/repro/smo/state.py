"""Result containers shared by every SMO/MO/SO solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["IterationRecord", "SMOResult"]


@dataclass
class IterationRecord:
    """One outer-iteration snapshot: loss value and elapsed seconds."""

    iteration: int
    loss: float
    seconds: float
    phase: str = ""  # "so" / "mo" / "bilevel" — used by convergence plots
    #: Per-tile loss vector ``(B,)`` for joint multi-clip runs; ``None``
    #: for single-tile solves.  Sums (up to the objective's reduction) to
    #: ``loss``.
    tile_losses: Optional[np.ndarray] = None
    #: Adaptive process-corner weights ``(C,)`` after this iteration's
    #: minimax ascent step (``robust="adaptive"`` runs only); ``None``
    #: otherwise.  The trajectory shows which corners dominated the
    #: worst-case objective over the run.
    corner_weights: Optional[np.ndarray] = None


@dataclass
class SMOResult:
    """Final parameters + convergence trace of one optimization run."""

    method: str
    theta_m: np.ndarray
    theta_j: Optional[np.ndarray]
    history: List[IterationRecord] = field(default_factory=list)
    runtime_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.history], dtype=np.float64)

    @property
    def final_loss(self) -> float:
        if not self.history:
            raise ValueError("empty history")
        return self.history[-1].loss

    @property
    def best_loss(self) -> float:
        return float(self.losses.min())

    @property
    def num_tiles(self) -> int:
        """Batch size of a joint multi-clip run (1 for single-tile runs)."""
        return int(self.theta_m.shape[0]) if self.theta_m.ndim == 3 else 1

    def tile_loss_matrix(self) -> np.ndarray:
        """Per-tile loss traces as a ``(T, B)`` array (joint runs only)."""
        if not self.history or any(r.tile_losses is None for r in self.history):
            raise ValueError("history carries no per-tile losses")
        return np.stack([r.tile_losses for r in self.history])

    @property
    def final_tile_losses(self) -> np.ndarray:
        """Last recorded per-tile loss vector ``(B,)`` (joint runs only)."""
        if not self.history or self.history[-1].tile_losses is None:
            raise ValueError("history carries no per-tile losses")
        return self.history[-1].tile_losses

    def corner_weight_matrix(self) -> np.ndarray:
        """Adaptive corner-weight traces as a ``(T, C)`` array.

        Only available for ``robust="adaptive"`` runs, whose records
        carry the per-iteration minimax weights.
        """
        if not self.history or any(
            r.corner_weights is None for r in self.history
        ):
            raise ValueError("history carries no adaptive corner weights")
        return np.stack([r.corner_weights for r in self.history])

    @property
    def final_corner_weights(self) -> np.ndarray:
        """Last recorded adaptive corner weights ``(C,)``."""
        if not self.history or self.history[-1].corner_weights is None:
            raise ValueError("history carries no adaptive corner weights")
        return self.history[-1].corner_weights

    def log_losses(self) -> np.ndarray:
        """log10 of the loss trace — the quantity plotted in Figure 3."""
        return np.log10(np.maximum(self.losses, 1e-30))
