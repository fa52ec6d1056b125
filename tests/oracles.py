"""Reference oracles the parity tests hold the production paths to."""

from __future__ import annotations

from typing import Any, Optional, Tuple
from unittest import mock

import numpy as np

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import (
    AbbeImaging,
    ImagingEngine,
    OpticalConfig,
    PupilAberration,
    SourceGrid,
    cache,
    fftlib,
)
from repro.smo import bismo, mask_from_theta, source_from_theta
from repro.utils.memory import require_memory


def dose_resist(
    aerial: ad.Tensor,
    config: OpticalConfig,
    dose: float,
    intensity_threshold: Optional[float] = None,
) -> ad.Tensor:
    """The composed resist chain at a dose corner (Eqs. (6), (8)):
    ``sigmoid(beta * (dose^2 * I - I_tr))`` from ``mul``/``sub``/
    ``sigmoid`` nodes, so it differentiates any number of times.
    ``intensity_threshold`` overrides the config's ``I_tr`` (a corner's
    calibrated threshold); ``None`` keeps the config value."""
    threshold = (
        config.intensity_threshold
        if intensity_threshold is None
        else float(intensity_threshold)
    )
    scaled = F.mul(aerial, dose * dose) if dose != 1.0 else aerial
    return F.sigmoid(F.mul(F.sub(scaled, threshold), config.beta))


def smo_loss_from_aerial(
    aerial: ad.Tensor, target: ad.Tensor, config: OpticalConfig
) -> ad.Tensor:
    """The paper's loss ``gamma * L2 + eta * L_pvb`` (Eqs. (7)-(8)) from
    one aerial image, composed.  A ``(B, N, N)`` aerial/target pair gives
    the loss summed over the batch."""
    z_nom = dose_resist(aerial, config, 1.0)
    z_min = dose_resist(aerial, config, config.dose_min)
    z_max = dose_resist(aerial, config, config.dose_max)
    l2 = F.sum(F.power(F.sub(z_nom, target), 2.0))
    pvb = F.add(
        F.sum(F.power(F.sub(z_max, target), 2.0)),
        F.sum(F.power(F.sub(z_min, target), 2.0)),
    )
    return F.add(F.mul(l2, config.gamma), F.mul(pvb, config.eta))


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


def expand_kernels(kernels, centres, n: int) -> np.ndarray:
    """Whole-grid ``(S, N, N)`` fftfreq-layout kernels from crops, sized
    against available memory first; whole-grid kernels return
    unchanged."""
    kern = np.asarray(kernels)
    starts = F._window_starts(kern.shape, n, centres)
    if starts is None:
        return kern
    s, k = kern.shape[0], kern.shape[-1]
    shape = (s, n, n)
    require_memory(
        kern.itemsize * s * n * n, f"{shape} {kern.dtype} expanded pupil stack"
    )
    full = np.zeros(shape, kern.dtype)
    for i, (r0, c0) in enumerate(starts.tolist()):
        full[i, r0 : r0 + k, c0 : c0 + k] = kern[i]
    return F._half_swap(full)


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
    only by the band-limited crop).  ``aberration`` sets the stack that
    :meth:`aerial_loop` sums over; every other method takes its
    conditions like the engine does."""

    def __init__(self, config: OpticalConfig, aberration=None):
        super().__init__(config)
        self.pupil_centres = np.zeros((self.num_source_points, 2), dtype=np.intp)
        stack, _ = full_pupil_stack(config, self.source_grid, aberration)
        self._pupil_stack = ad.Tensor(stack)
        self._conj_pairs = full_conj_pairs(stack, self.source_grid)
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


def per_corner_losses(engine, config, mask, source, target, window):
    """The per-corner loop oracle of the fused condition axis: each
    corner of ``window`` images in its own ``engine.aerial_conditions(
    mask, source, (corner.aberrations,))`` pass — its own mask spectrum
    and kernel pass, with nothing shared even where corners share a
    condition — then the composed ``dose_resist`` and its squared error
    against ``target``.  Returns the ``C`` corner losses."""
    target = ad.as_tensor(target)
    losses = []
    for corner in window.corners:
        stack = engine.aerial_conditions(mask, source, (corner.aberrations,))
        aerial = F.reshape(stack, stack.shape[1:])
        z = dose_resist(aerial, config, corner.dose, corner.intensity_threshold)
        losses.append(F.sum(F.power(F.sub(z, target), 2.0)))
    return losses


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


def unrolled_hypergradient_composed(
    objective, theta_j: np.ndarray, theta_m: np.ndarray, steps: int, inner_lr: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Reference BiSMO-UNROLL: ``steps`` inner SGD updates built inside
    one autodiff graph (``create_graph``), then one backward of the loss
    at the last iterate through all of them.

    Returns ``(hypergradient, theta_J^T, loss at theta_J^T)``.  Every
    intermediate graph is retained, so memory grows with ``steps``; the
    objective's images must be composed ops (``ComposedAbbeImaging``, or
    a duck-typed objective such as the quadratic toy), because the fused
    imaging primitive refuses a ``create_graph`` backward.
    """
    tm = ad.Tensor(theta_m, requires_grad=True)
    cur = ad.Tensor(theta_j, requires_grad=True)
    for _ in range(steps):
        (gj,) = ad.grad(objective.loss(cur, tm), [cur], create_graph=True)
        cur = F.sub(cur, F.mul(gj, inner_lr))
    loss = objective.loss(cur, tm)
    (gm,) = ad.grad(loss, [tm])
    return gm.data, cur.data.copy(), float(loss.data)


class ComposedSourceLoss:
    """The composed stand-in for ``source_only_loss(theta_m)``: the
    objective's full ``loss`` at a fixed ``theta_M``, callable on
    ``theta_J``.  It carries no intensity basis, so the composed context
    below differentiates the whole graph instead."""

    def __init__(self, objective, theta_m: np.ndarray):
        self.objective = objective
        self.theta_m = np.asarray(theta_m, dtype=np.float64)

    def __call__(self, theta_j: ad.Tensor) -> ad.Tensor:
        return self.objective.loss(theta_j, ad.Tensor(self.theta_m))


class ComposedHypergradientContext:
    """The composed ``create_graph`` reference of
    ``repro.smo.bismo.HypergradientContext``, with the same interface.

    One loss evaluation with ``create_graph=True`` gives ``grad_j`` and
    ``grad_m`` with their graphs; :meth:`hvp` and :meth:`mixed_vjp` are
    second backwards through the ``grad_j`` graph, and
    ``mixed_vjp(w, direct=c)`` is literally ``grad_m - c *
    mixed_vjp(w)``.  The imaging primitive's VJP is graph-free, so the
    objective's images must be composed ops (``ComposedAbbeImaging``, or
    a duck-typed objective such as the quadratic toy).
    """

    basis = None

    def __init__(self, so_loss: ComposedSourceLoss, theta_j: np.ndarray):
        self.so_loss = so_loss
        self._tj = ad.Tensor(theta_j, requires_grad=True)
        self._tm = ad.Tensor(so_loss.theta_m, requires_grad=True)
        loss = so_loss.objective.loss(self._tj, self._tm)
        self.loss_value = float(loss.data)
        gj, gm = ad.grad(loss, [self._tj, self._tm], create_graph=True)
        self._gj_graph = gj
        self.grad_j = gj.data.copy()
        self.grad_m = gm.data.copy()

    def at(self, theta_j: np.ndarray) -> "ComposedHypergradientContext":
        return ComposedHypergradientContext(self.so_loss, theta_j)

    def hvp(self, p: np.ndarray) -> np.ndarray:
        inner = F.dot(self._gj_graph, ad.Tensor(p))
        (h,) = ad.grad(inner, [self._tj], allow_unused=True)
        return np.zeros_like(p) if h is None else h.data

    def mixed_vjp(
        self, w: np.ndarray, direct: Optional[float] = None
    ) -> np.ndarray:
        inner = F.dot(self._gj_graph, ad.Tensor(w))
        (gm,) = ad.grad(inner, [self._tm], allow_unused=True)
        m = np.zeros_like(self._tm.data) if gm is None else gm.data
        return m if direct is None else self.grad_m - direct * m


def composed_context(
    objective, theta_j: np.ndarray, theta_m: np.ndarray
) -> ComposedHypergradientContext:
    """The composed reference context of ``objective`` at
    ``(theta_j, theta_m)``."""
    return ComposedHypergradientContext(
        ComposedSourceLoss(objective, theta_m), theta_j
    )


def run_composed(solver, *args: Any, **kwargs: Any):
    """``solver.run(*args, **kwargs)`` with every hypergradient context
    the composed reference: BiSMO's objective must return a
    ``ComposedSourceLoss`` from ``source_only_loss``."""
    with mock.patch.object(
        bismo, "HypergradientContext", ComposedHypergradientContext
    ):
        return solver.run(*args, **kwargs)


class LoopedSMOObjective:
    """Reference joint SMO loss: a Python loop over per-tile graphs.

    Mathematically identical to ``ProcessWindowSMOObjective`` on a
    ``(B, N, N)`` stack with its default window (same shared
    ``theta_J``, the loss summed over the ``theta_M`` stack), but each
    tile builds its own single-tile graph from the Eq. (7)-(8) formula
    ``smo_loss_from_aerial(engine.aerial(...))``: the pre-batching
    consumer pattern, with no process-window code in the loop.  Its
    ``source_only_loss`` is a :class:`ComposedSourceLoss`, so the
    composed ``create_graph`` oracle runs on it (``composed_context``,
    ``run_composed``); that needs a composed-op engine
    (``ComposedAbbeImaging``), since the fused imaging primitive refuses
    a ``create_graph`` backward.
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
        self.engine = engine or cache.abbe_engine(config)
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

    def source_only_loss(self, theta_m: np.ndarray) -> ComposedSourceLoss:
        return ComposedSourceLoss(self, theta_m)
