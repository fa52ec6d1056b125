"""Differentiable Abbe forward imaging — Equation (2) of the paper.

Abbe's model discretizes the source into points and sums each point's
coherent image intensity:

    I(x, y) = sum_s  j_s * | IFFT( H(f + f_s, g + g_s) * FFT(M) ) |^2

Because every source point's contribution is independent, the whole sum
is evaluated as ONE fused graph node — the same structure the paper
exploits on a GPU (Section 3.1 "Abbe acceleration").  Since PR 3 that
node is :func:`repro.autodiff.functional.incoherent_image`: the forward
streams over source-axis chunks and the hand-written VJP recomputes the
per-chunk coherent fields, so neither direction retains a ``(B, S, N,
N)`` stack; all transforms dispatch through
:mod:`repro.optics.fftlib`.  For real masks the engine additionally
hands the primitive its verified ``+/-sigma`` conjugate pairing
(``F_{-sigma} = conj(F_{+sigma})`` when the pupils are real), halving
the FFT work in both directions.  A per-point Python loop
(:meth:`AbbeImaging.aerial_loop`) is kept for the acceleration
benchmark, and ``fused=False`` restores the composed-op graph.

Total intensity is normalized by the summed source weight so a clear
field images at intensity 1 for any source shape; this keeps a single
resist threshold meaningful while the source is being optimized.

``AbbeImaging`` implements the :class:`repro.optics.engine.ImagingEngine`
protocol; pupil stacks come from the shared :mod:`repro.optics.cache`
unless a custom source grid is supplied.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from ..obs import span as obs_span
from ..utils.memory import require_memory
from .config import OpticalConfig
from .engine import MaskLike, as_tile_batch, incoherent_sum_fast
from .source import SourceGrid

__all__ = ["AbbeImaging"]

_EPS = 1e-12


class AbbeImaging:
    """Batched, autodiff-compatible Abbe imaging engine.

    Parameters
    ----------
    config:
        Optical configuration; grids are derived from it.
    source_grid:
        Optional pre-built :class:`SourceGrid`.  When omitted, the grid
        and the shifted pupil stack are fetched from the shared optics
        cache, so engines with equal configs share one stack.

    fused:
        When True (default) :meth:`aerial` is one fused
        :func:`repro.autodiff.functional.incoherent_image` node with a
        streamed hand-written VJP; ``False`` selects the pre-fusion
        composed-op graph (kept as the parity/benchmark reference —
        see ``benchmarks/bench_fused_imaging.py``).

    Both :meth:`aerial` arguments are autodiff tensors, so gradients flow
    to the mask *and* the source — the property that Hopkins/SOCS lacks
    and that enables joint SMO (Section 2.1 discussion).
    """

    def __init__(
        self,
        config: OpticalConfig,
        source_grid: Optional[SourceGrid] = None,
        defocus_nm: float = 0.0,
        fused: bool = True,
        aberration=None,
    ):
        from .zernike import PupilAberration

        config.validate_sampling()
        self.config = config
        self.fused = bool(fused)
        # The engine's own pupil condition: the legacy defocus knob plus
        # an optional general aberration spec, canonicalized into one
        # PupilAberration (Z4 == wafer defocus).
        own = PupilAberration.coerce(aberration)
        if float(defocus_nm) != 0.0:
            own = own.add_defocus(float(defocus_nm))
        self.aberration = own
        self.defocus_nm = float(own.defocus_nm)
        self._custom_grid = source_grid is not None
        if source_grid is None:
            from . import cache

            self.source_grid = cache.source_grid(config)
            self._pupil_stack, self._valid_index = cache.pupil_stack(
                config, own
            )
            self._conj_pairs = cache.conj_pairs(config, own)
        else:
            from .pupil import aberrated_pupil_stack, conj_pair_indices

            self.source_grid = source_grid
            stack, valid_index = aberrated_pupil_stack(
                config, self.source_grid, own
            )
            self._pupil_stack = ad.Tensor(stack)
            self._valid_index = valid_index
            self._conj_pairs = conj_pair_indices(
                stack, valid_index, self.source_grid
            )
        self.num_source_points = self._pupil_stack.shape[0]
        #: Per-condition (stack, conj_pairs) memo for custom-grid engines
        #: (cache-backed engines resolve through repro.optics.cache).
        #: Guarded by a lock: cached engines are shared across threads,
        #: and the condition axis now fans out concurrently.
        self._condition_memo: dict = {}
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    def condition_stacks(self, conditions):
        """Per-condition ``(pupil_stack_tensor, conj_pairs)`` pairs.

        The condition axis of a process window: one entry per distinct
        pupil aberration, shared through :mod:`repro.optics.cache` (or a
        per-engine memo when a custom source grid is in play).  Entries
        of ``conditions`` are anything
        :meth:`repro.optics.zernike.PupilAberration.coerce` accepts —
        plain defocus floats keep working.  The null condition keeps its
        real stack and verified ``+/-sigma`` pairing; aberrated stacks
        are complex and opt out of pairing.
        """
        from .zernike import PupilAberration

        out = []
        for condition in conditions:
            ab = PupilAberration.coerce(condition)
            if ab.cache_key == self.aberration.cache_key:
                out.append((self._pupil_stack, self._conj_pairs))
            elif not self._custom_grid:
                from . import cache

                stack_t, _ = cache.pupil_stack(self.config, ab)
                out.append((stack_t, cache.conj_pairs(self.config, ab)))
            else:
                key = ab.cache_key
                with self._memo_lock:
                    entry = self._condition_memo.get(key)
                if entry is None:
                    from .engine import CONDITION_MEMO_MAX
                    from .pupil import aberrated_pupil_stack, conj_pair_indices

                    # Build outside the lock (stacks are heavy); insert
                    # under it, first build wins (values are
                    # deterministic, so concurrent builders agree).
                    stack, valid_index = aberrated_pupil_stack(
                        self.config, self.source_grid, ab
                    )
                    built = (
                        ad.Tensor(stack),
                        conj_pair_indices(stack, valid_index, self.source_grid),
                    )
                    with self._memo_lock:
                        entry = self._condition_memo.get(key)
                        if entry is None:
                            if len(self._condition_memo) >= CONDITION_MEMO_MAX:
                                # Bounded FIFO: cached engines are shared,
                                # so the memo must not grow with every
                                # condition ever seen.
                                del self._condition_memo[
                                    next(iter(self._condition_memo))
                                ]
                            self._condition_memo[key] = built
                            entry = built
                out.append(entry)
        return out

    def source_weights(self, source: ad.Tensor) -> ad.Tensor:
        """Extract the valid-point weight vector ``j_s`` from a source image."""
        return F.getitem(source, self._valid_index)

    def normalized_weights(self, source: ad.Tensor) -> ad.Tensor:
        """Normalized source weights ``j_s / (sum_s j_s + eps)``.

        The weights every differentiable aerial uses: a clear field then
        images at intensity 1 for any source shape.  Normalizing the
        ``(S,)`` vector instead of the ``(B, N, N)`` output keeps the
        division off the big array.
        """
        j = self.source_weights(source)
        return F.div(j, F.add(F.sum(j), _EPS))

    def aerial(self, mask: ad.Tensor, source: Optional[ad.Tensor] = None) -> ad.Tensor:
        """Aerial image intensity for mask(s) and source (N_j, N_j).

        ``mask`` is a single ``(N, N)`` tile or a ``(B, N, N)`` tile
        batch (a batch returns ``(B, N, N)`` intensities).  Differentiable
        w.r.t. both arguments; intensity is normalized by the total
        source weight (clear field -> 1.0).
        """
        if source is None:
            raise ValueError("AbbeImaging.aerial requires a source image")
        jn = self.normalized_weights(source)
        if self.fused:
            return F.incoherent_image(
                mask, self._pupil_stack, jn, conj_pairs=self._conj_pairs
            )
        return F.incoherent_image_composed(mask, self._pupil_stack, jn)

    def aerial_fast(
        self, mask: MaskLike, source: Optional[MaskLike] = None
    ) -> np.ndarray:
        """Inference fast path: no autodiff graph, zero-weight points pruned.

        Numerically matches :meth:`aerial` (pruning a source point whose
        weight is exactly zero is exact), operates on plain numpy arrays
        and returns one.  This is the path behind ``images()``, metric
        evaluation and the harness judge.
        """
        if source is None:
            raise ValueError("AbbeImaging.aerial_fast requires a source image")
        src = source.data if isinstance(source, ad.Tensor) else np.asarray(source)
        src = np.asarray(src, dtype=np.float64)
        tiles, single = as_tile_batch(mask, self.config.mask_size)
        j = src[self._valid_index]
        out = incoherent_sum_fast(
            tiles, self._pupil_stack.data, j, float(j.sum()) + _EPS
        )
        return out[0] if single else out

    # ------------------------------------------------------------------
    # process-condition axis
    # ------------------------------------------------------------------
    def aerial_conditions(
        self,
        mask: ad.Tensor,
        source: ad.Tensor,
        conditions=(0.0,),
        *,
        focus_values=None,
    ) -> ad.Tensor:
        """Aerial stack across pupil conditions: ``(F, B, N, N)``.

        One fused :func:`repro.autodiff.functional.incoherent_image_stack`
        node evaluates every distinct aberration of a process window
        against a single shared mask-spectrum FFT; dose corners never
        reach this layer (dose is an exact post-aerial ``dose**2``
        scaling applied by the resist model).  ``conditions`` entries
        are defocus floats or any
        :meth:`repro.optics.zernike.PupilAberration.coerce` argument
        (``focus_values`` is the legacy keyword alias).  Single
        ``(N, N)`` masks return ``(F, N, N)``.  Differentiable w.r.t.
        mask and source exactly like :meth:`aerial` (including
        second-order products through the primitive's composed-op
        ``create_graph`` fallback).  As with :meth:`aerial`,
        ``fused=False`` engines build the composed-op reference graph
        instead (one :func:`incoherent_image_composed` per condition,
        scattered into the condition stack).
        """
        if focus_values is not None:
            conditions = focus_values
        if source is None:
            raise ValueError("AbbeImaging.aerial_conditions requires a source")
        jn = self.normalized_weights(source)
        stacks_pairs = self.condition_stacks(conditions)
        if not self.fused:
            aerials = [
                F.incoherent_image_composed(mask, stack, jn)
                for stack, _ in stacks_pairs
            ]
            shape = (len(aerials),) + aerials[0].shape
            total = None
            for fi, aerial in enumerate(aerials):
                part = F.scatter(aerial, fi, shape)
                total = part if total is None else F.add(total, part)
            return total
        return F.incoherent_image_stack(
            mask,
            [stack for stack, _ in stacks_pairs],
            jn,
            conj_pairs=[pairs for _, pairs in stacks_pairs],
        )

    def aerial_conditions_fast(
        self,
        mask: MaskLike,
        source: MaskLike,
        conditions=(0.0,),
        *,
        focus_values=None,
    ) -> np.ndarray:
        """Graph-free condition-axis forward, matching
        :meth:`aerial_conditions` numerically (inference/judge path).
        Per-condition passes fan out across the
        :func:`repro.optics.fftlib.map_conditions` thread pool; a single
        condition runs inline and opens no condition spans."""
        from . import fftlib

        if focus_values is not None:
            conditions = focus_values
        if source is None:
            raise ValueError(
                "AbbeImaging.aerial_conditions_fast requires a source"
            )
        src = source.data if isinstance(source, ad.Tensor) else np.asarray(source)
        src = np.asarray(src, dtype=np.float64)
        tiles, single = as_tile_batch(mask, self.config.mask_size)
        j = src[self._valid_index]
        norm = float(j.sum()) + _EPS
        stacks_pairs = self.condition_stacks(conditions)

        def _one_condition(fi: int) -> np.ndarray:
            return incoherent_sum_fast(
                tiles, stacks_pairs[fi][0].data, j, norm
            )

        def _traced_condition(fi: int) -> np.ndarray:
            with obs_span("engine.condition", index=fi):
                return _one_condition(fi)

        count = len(stacks_pairs)
        if count == 1:  # no fan-out, so no condition spans
            out = _one_condition(0)[None]
        else:
            with obs_span("engine.conditions", engine="abbe", n=count):
                out = np.stack(fftlib.map_conditions(_traced_condition, count))
        return out[:, 0] if single else out

    def source_intensity_basis(
        self, masks: np.ndarray, pupil_stack: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-source-point intensity basis ``X[b, s] = |IFFT(H_s FFT(M_b))|^2``.

        Abbe's aerial image is *linear* in the normalized source weights:
        ``A[b] = sum_s (j_s / sum j) X[b, s]`` with ``X`` independent of
        the source.  At a fixed mask the basis is therefore a constant,
        and any source-only quantity (SO losses, inner-Hessian products
        in bilevel SMO) can be rebuilt from it without touching an FFT.
        Returns a ``(B, S, N, N)`` numpy array.  The decomposition is
        mathematically exact; numerically it matches the fused
        :meth:`aerial` to floating-point rounding (~1e-16 relative — the
        fused forward accumulates in conjugate-paired chunks, so the
        summation order differs).

        ``pupil_stack`` substitutes a different kernel stack (e.g. one
        focus condition's defocused pupils from
        :meth:`condition_stacks`) for the engine's own — the
        process-window objective builds one basis per focus value this
        way.
        """
        from . import backend as abk

        bk = abk.active_backend()
        tiles, _ = as_tile_batch(masks, self.config.mask_size)
        kernels = self._pupil_stack.data if pupil_stack is None else pupil_stack
        shape = (tiles.shape[0],) + kernels.shape
        require_memory(
            8 * int(np.prod(shape)), f"{shape} float64 intensity basis"
        )
        fm = bk.fft2(bk.from_host(tiles))  # (B, N, N)
        kern = bk.from_host(kernels)
        out = abk.HOST.empty(shape, np.float64)
        # Tile-at-a-time keeps the working set cache-sized; per-tile
        # results are bitwise identical to the full-stack transform.
        for b in range(tiles.shape[0]):
            fields = bk.ifft2(kern * fm[b], overwrite_x=True)
            out[b] = bk.to_host(bk.abs2(fields))
        return out  # (B, S, N, N)

    def aerial_loop(self, mask: ad.Tensor, source: ad.Tensor) -> ad.Tensor:
        """Reference per-source-point loop (slow path).

        Mathematically identical to :meth:`aerial`; exists to demonstrate
        the batching speed-up measured by ``benchmarks/bench_abbe_accel``.
        """
        j = self.source_weights(source)
        fm = F.fft2(mask)
        total: Optional[ad.Tensor] = None
        for s in range(self.num_source_points):
            h_s = F.getitem(self._pupil_stack, s)
            field = F.ifft2(F.mul(h_s, fm))
            contrib = F.mul(F.getitem(j, s), F.abs2(field))
            total = contrib if total is None else F.add(total, contrib)
        if total is None:
            raise RuntimeError(
                "aerial_loop accumulated no source points; "
                "num_source_points must be >= 1"
            )
        return F.div(total, F.add(F.sum(j), _EPS))

    # ------------------------------------------------------------------
    def clear_field_intensity(self, source: np.ndarray) -> float:
        """Nominal intensity of a fully open mask (sanity-check helper)."""
        img = self.aerial_fast(
            np.ones((self.config.mask_size,) * 2), np.asarray(source)
        )
        return float(img.mean())
