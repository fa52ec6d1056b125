"""Reference oracles the parity tests hold the production paths to."""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import AbbeImaging, ImagingEngine, OpticalConfig, engine_for
from repro.smo import mask_from_theta, smo_loss_from_aerial, source_from_theta


def composed_condition_stack(mask, stacks, weights) -> ad.Tensor:
    """Reference condition stack: one ``incoherent_image_composed`` graph
    per kernel stack, scattered into an ``(F, [B,] N, N)`` tensor.

    The pre-fusion graph ``fft2 -> mul -> ifft2 -> abs2 -> mul -> sum``
    per condition, every ``(B, S, N, N)`` intermediate retained: the
    oracle ``incoherent_image_stack`` is held to, values and gradients
    (first and second order).
    """
    aerials = [F.incoherent_image_composed(mask, st, weights) for st in stacks]
    shape = (len(aerials),) + tuple(aerials[0].shape)
    total: Optional[ad.Tensor] = None
    for fi, aerial in enumerate(aerials):
        part = F.scatter(aerial, fi, shape)
        total = part if total is None else F.add(total, part)
    assert total is not None
    return total


class ComposedAbbeImaging(AbbeImaging):
    """An Abbe engine whose every image is the composed-op reference graph.

    Only :meth:`aerial_conditions` is overridden, so ``aerial``,
    ``aerial_fast`` and ``aerial_conditions_fast`` follow it: objectives,
    solvers and benchmarks built on this engine run the composed oracle
    end to end.
    """

    def aerial_conditions(self, mask, source, conditions=(0.0,)):
        if source is None:
            raise ValueError(
                "ComposedAbbeImaging.aerial_conditions requires a source"
            )
        stacks = [stack for stack, _ in self.condition_stacks(conditions)]
        return composed_condition_stack(
            mask, stacks, self.normalized_weights(source)
        )


class LoopedSMOObjective:
    """Reference joint SMO loss: a Python loop over per-tile graphs.

    Mathematically identical to ``ProcessWindowSMOObjective`` on a
    ``(B, N, N)`` stack with its default window (same shared
    ``theta_J``, the loss summed over the ``theta_M`` stack), but each
    tile builds its own single-tile graph from the Eq. (7)-(8) formula
    ``smo_loss_from_aerial(engine.aerial(...))``: the pre-batching
    consumer pattern, with no process-window code in the loop.  It
    deliberately has no ``source_only_loss``, so BiSMO and
    ``HypergradientContext`` run the composed ``create_graph`` oracle
    on it.
    """

    def __init__(
        self,
        config: OpticalConfig,
        targets: np.ndarray,
        engine: Optional[ImagingEngine] = None,
    ):
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 3:
            raise ValueError(f"targets must be (B, N, N); got {targets.shape}")
        self.config = config
        self.target = ad.Tensor(targets)
        self.num_tiles = targets.shape[0]
        self.engine = engine or engine_for(config, "abbe")
        #: Per-tile loss vector of the most recent :meth:`loss` call.
        self.last_tile_losses: Optional[np.ndarray] = None

    def loss(self, theta_j: ad.Tensor, theta_m: ad.Tensor) -> ad.Tensor:
        """Sum of B independent single-tile graphs (the slow path)."""
        if tuple(theta_m.shape) != tuple(self.target.shape):
            raise ValueError(
                f"theta_m must be shaped like the target {self.target.shape}; "
                f"got {theta_m.shape}"
            )
        source = source_from_theta(theta_j, self.config)
        total: Optional[ad.Tensor] = None
        per_tile = np.empty(self.num_tiles)
        for i in range(self.num_tiles):
            mask = mask_from_theta(F.getitem(theta_m, i), self.config)
            aerial = self.engine.aerial(mask, source)
            li = smo_loss_from_aerial(
                aerial, ad.Tensor(self.target.data[i]), self.config
            )
            per_tile[i] = float(li.data)
            total = li if total is None else F.add(total, li)
        assert total is not None
        self.last_tile_losses = per_tile
        return total
