"""Reference oracles the parity tests hold the production paths to."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import (
    AbbeImaging,
    ImagingEngine,
    OpticalConfig,
    PupilAberration,
    SourceGrid,
    engine_for,
    fftlib,
)
from repro.smo import mask_from_theta, smo_loss_from_aerial, source_from_theta
from repro.utils.memory import require_memory


def full_pupil_stack(
    config: OpticalConfig, grid: SourceGrid, aberration=None
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Whole-grid ``(S, N, N)`` shifted pupils ``H(f + f_s)``, each times
    the aberration's full-grid phase factor: the stack the engine
    imaged through before pupils were cropped, built independently of
    the crop code."""
    fx, fy = config.freq_grid()
    off_x, off_y = grid.freq_offsets(config)
    shape = (off_x.size,) + fx.shape
    require_memory(
        8 * off_x.size * fx.size, f"{shape} float64 shifted pupil stack"
    )
    fc = config.cutoff_freq
    shifted_sq = (fx[None, :, :] + off_x[:, None, None]) ** 2 + (
        fy[None, :, :] + off_y[:, None, None]
    ) ** 2
    stack = (shifted_sq <= (fc + 1e-15) ** 2).astype(np.float64)
    ab = PupilAberration.coerce(aberration)
    if not ab.is_null:
        stack = stack * ab.phase(config)[None, :, :]
    return stack, np.nonzero(grid.valid)


def full_conj_pairs(stack: np.ndarray, grid: SourceGrid) -> Optional[np.ndarray]:
    """Verified ``+/-sigma`` pairing of a whole-grid stack (None for
    complex stacks or an asymmetric grid)."""
    if np.iscomplexobj(stack):
        return None
    rows, cols = np.nonzero(grid.valid)
    sx = np.round(grid.sigma_x[rows, cols], 9)
    sy = np.round(grid.sigma_y[rows, cols], 9)
    index = {(x, y): i for i, (x, y) in enumerate(zip(sx, sy))}
    pairs = np.array([index.get((-x, -y), -1) for x, y in zip(sx, sy)])
    if np.any(pairs < 0):
        return None
    reps = np.nonzero(pairs > np.arange(pairs.size))[0]
    if not np.array_equal(stack[pairs[reps]], fftlib.freq_reverse(stack[reps])):
        return None
    return pairs


class FullGridAbbeImaging(AbbeImaging):
    """The Abbe engine on whole-grid ``(S, N, N)`` pupils: every field an
    N-point transform, no crop and no resample — the parity oracle of
    the cropped engine (same primitive at K == N, so the two differ
    only by the band-limited crop)."""

    def __init__(self, config: OpticalConfig, source_grid=None, aberration=None):
        grid = source_grid or SourceGrid.from_config(config)
        super().__init__(config, source_grid=grid, aberration=aberration)
        self.pupil_centres = np.zeros((self.num_source_points, 2), dtype=np.intp)
        stack, _ = full_pupil_stack(config, grid, self.aberration)
        self._pupil_stack = ad.Tensor(stack)
        self._conj_pairs = full_conj_pairs(stack, grid)
        self._full: dict = {}

    def condition_stacks(self, conditions):
        out = []
        for condition in conditions:
            ab = PupilAberration.coerce(condition)
            if ab.cache_key not in self._full:
                stack, _ = full_pupil_stack(self.config, self.source_grid, ab)
                self._full[ab.cache_key] = (
                    ad.Tensor(stack),
                    full_conj_pairs(stack, self.source_grid),
                )
            out.append(self._full[ab.cache_key])
        return out

    def aerial_loop(self, mask: ad.Tensor, source: ad.Tensor) -> ad.Tensor:
        """Per-source-point Python loop of composed ops: the serial Abbe
        sum the batched engine is held to."""
        j = self.source_weights(source)
        fm = F.fft2(mask)
        total: Optional[ad.Tensor] = None
        for s in range(self.num_source_points):
            h_s = F.getitem(self._pupil_stack, s)
            field = F.ifft2(F.mul(h_s, fm))
            contrib = F.mul(F.getitem(j, s), F.abs2(field))
            total = contrib if total is None else F.add(total, contrib)
        assert total is not None
        return F.div(total, F.add(F.sum(j), 1e-12))


def incoherent_image_composed(mask, pupil_stack, weights) -> ad.Tensor:
    """Reference incoherent sum from six composed autodiff ops.

    Computes ``I[b] = sum_s w_s |IFFT2(H_s * FFT2(M_b))|^2`` for a
    whole-grid ``(S, N, N)`` kernel stack as the pre-fusion graph
    ``fft2 -> mul -> ifft2 -> abs2 -> mul -> sum``.  Every ``(B, S, N,
    N)`` intermediate is materialized and retained by the backward
    graph: the memory/time baseline of the fused primitive and the
    oracle its gradients are tested against.
    """
    mask, stack, weights = (ad.as_tensor(x) for x in (mask, pupil_stack, weights))
    s, n = stack.shape[0], stack.shape[-1]
    single = mask.ndim == 2
    m3 = F.reshape(mask, (1, n, n)) if single else mask
    b = m3.shape[0]
    spectra = F.mul(
        F.reshape(stack, (1, s, n, n)), F.reshape(F.fft2(m3), (b, 1, n, n))
    )
    intensities = F.abs2(F.ifft2(spectra))  # (B, S, N, N)
    out = F.sum(F.mul(F.reshape(weights, (1, s, 1, 1)), intensities), axis=1)
    return F.reshape(out, (n, n)) if single else out


def per_condition_loss(objective):
    """``objective.loss`` as a per-condition reference loop: one
    independent imaging pass per distinct pupil condition (no shared
    mask spectrum, no fused stack) through the objective's own engine,
    then the objective's loss tail.  The parity oracle of the fused
    condition axis."""

    def loss(theta_j: ad.Tensor, theta_m: ad.Tensor) -> ad.Tensor:
        source = source_from_theta(theta_j, objective.config)
        mask = mask_from_theta(theta_m, objective.config)
        jn = objective.engine.normalized_weights(source)
        centres = getattr(objective.engine, "pupil_centres", None)
        return objective._tail(
            [
                F.incoherent_image(
                    mask, stack, jn, conj_pairs=pairs, centres=centres
                )
                for stack, pairs in objective.engine.condition_stacks(
                    objective.window.conditions()
                )
            ]
        )

    return loss


def composed_condition_stack(mask, stacks, weights) -> ad.Tensor:
    """Reference condition stack: one ``incoherent_image_composed`` graph
    per kernel stack, scattered into an ``(F, [B,] N, N)`` tensor.

    The pre-fusion graph ``fft2 -> mul -> ifft2 -> abs2 -> mul -> sum``
    per condition, every ``(B, S, N, N)`` intermediate retained: the
    oracle ``incoherent_image_stack`` is held to, values and gradients
    (first and second order).
    """
    aerials = [incoherent_image_composed(mask, st, weights) for st in stacks]
    shape = (len(aerials),) + tuple(aerials[0].shape)
    total: Optional[ad.Tensor] = None
    for fi, aerial in enumerate(aerials):
        part = F.scatter(aerial, fi, shape)
        total = part if total is None else F.add(total, part)
    assert total is not None
    return total


class ComposedAbbeImaging(FullGridAbbeImaging):
    """A full-grid Abbe engine whose every image is the composed-op
    reference graph.

    Only :meth:`aerial_conditions` is overridden, so ``aerial``,
    ``aerial_fast`` and ``aerial_conditions_fast`` follow it: objectives
    and solvers built on this engine run the composed oracle on
    whole-grid pupils end to end.
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
