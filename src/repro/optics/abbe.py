"""Differentiable Abbe forward imaging — Equation (2) of the paper.

Abbe's model discretizes the source into points and sums each point's
coherent image intensity:

    I(x, y) = sum_s  j_s * | IFFT( H(f + f_s, g + g_s) * FFT(M) ) |^2

Because every source point's contribution is independent, the whole sum
is evaluated as ONE fused graph node — the same structure the paper
exploits on a GPU (Section 3.1 "Abbe acceleration").  That node is
:func:`repro.autodiff.functional.incoherent_image_stack`, one kernel
stack per pupil condition: the forward streams over source-axis chunks
and the hand-written VJP recomputes the per-chunk coherent fields, so
neither direction retains a ``(B, S, N, N)`` stack; every transform
runs through the :mod:`repro.optics.backend` FFT seam.

Each point's field is band-limited to one shifted pupil disk, so the
engine holds ``(S, K, K)`` pupil crops around integer centres
(:func:`repro.optics.pupil.crop_geometry`; K = 56 of N = 128 at
``default``, the whole grid wherever a crop would not halve it) and the
primitive runs every field on the K grid, resampling the weighted
intensity to N once per tile.  For real masks the engine additionally
hands the primitive its verified ``+/-sigma`` conjugate pairing
(``F_{-sigma} = conj(F_{+sigma})`` when the pupils are real), halving
the FFT work in both directions.  :meth:`AbbeImaging.aerial_conditions`
is the engine's one imaging method; ``aerial``, ``aerial_fast`` and
``aerial_conditions_fast`` derive from it
(:class:`repro.optics.engine.ImagingEngine`), and
:meth:`AbbeImaging.source_intensity_basis` returns the unreduced
per-point intensities the BiSMO oracles contract.

Total intensity is normalized by the summed source weight so a clear
field images at intensity 1 for any source shape; this keeps a single
resist threshold meaningful while the source is being optimized.

``AbbeImaging`` implements the :class:`repro.optics.engine.ImagingEngine`
protocol; every condition's pupil crops, the nominal one included, come
from the shared :mod:`repro.optics.cache`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from .config import OpticalConfig
from .engine import ImagingEngine, as_tile_batch

__all__ = ["AbbeImaging"]

_EPS = 1e-12


class AbbeImaging(ImagingEngine):
    """Batched, autodiff-compatible Abbe imaging engine.

    Parameters
    ----------
    config:
        Optical configuration.  The source grid and every condition's
        pupil crops come from the shared optics cache, so engines with
        equal configs share one crop stack per condition.

    Both :meth:`aerial_conditions` arguments are autodiff tensors, so
    gradients flow to the mask *and* the source — the property that
    Hopkins/SOCS lacks and that enables joint SMO (Section 2.1
    discussion).
    """

    def __init__(self, config: OpticalConfig):
        from . import cache

        config.validate_sampling()
        self.config = config
        self.source_grid = cache.source_grid(config)
        #: The nominal condition's crops and pairing (what
        #: :meth:`source_intensity_basis` defaults to).
        self._pupil_stack, self._valid_index = cache.pupil_stack(config)
        self._conj_pairs = cache.conj_pairs(config)
        #: ``(S, 2)`` integer (row, col) centre bin of every pupil crop
        #: (all zero when the crop is the whole grid).
        self.pupil_centres = cache.pupil_geometry(config)[1]
        self.num_source_points = self._pupil_stack.shape[0]

    # ------------------------------------------------------------------
    def condition_stacks(self, conditions):
        """Per-condition ``(pupil_crops_tensor, conj_pairs)`` pairs.

        The condition axis of a process window: one entry per distinct
        pupil aberration, the nominal one included, each shared through
        :mod:`repro.optics.cache`.  Entries of ``conditions`` are
        anything :meth:`repro.optics.zernike.PupilAberration.coerce`
        accepts — plain defocus floats keep working.  Every condition
        shares the engine's crop geometry (:attr:`pupil_centres`).  The
        null condition keeps its real crops and verified ``+/-sigma``
        pairing; aberrated crops are complex and opt out of pairing.
        """
        from . import cache

        return [
            (cache.pupil_stack(self.config, c)[0], cache.conj_pairs(self.config, c))
            for c in conditions
        ]

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

    def aerial_conditions(
        self,
        mask: ad.Tensor,
        source: ad.Tensor,
        conditions=(0.0,),
    ) -> ad.Tensor:
        """Aerial stack across pupil conditions: ``(F, B, N, N)``.

        One fused :func:`repro.autodiff.functional.incoherent_image_stack`
        node evaluates every distinct aberration of a process window
        against a single shared mask-spectrum FFT; dose corners never
        reach this layer (dose is an exact post-aerial ``dose**2``
        scaling applied by the resist model).  ``conditions`` entries
        are defocus floats or any
        :meth:`repro.optics.zernike.PupilAberration.coerce` argument.
        Single ``(N, N)`` masks return ``(F, N, N)``.  Differentiable
        w.r.t. the mask and the source (first order: the primitive's
        VJP is graph-free, so second-order products come from
        :meth:`source_intensity_basis`); intensity is normalized by the
        total source weight (clear field -> 1.0).
        """
        if source is None:
            raise ValueError("AbbeImaging.aerial_conditions requires a source")
        stacks_pairs = self.condition_stacks(conditions)
        return F.incoherent_image_stack(
            mask,
            [stack for stack, _ in stacks_pairs],
            self.normalized_weights(source),
            conj_pairs=[pairs for _, pairs in stacks_pairs],
            centres=self.pupil_centres,
        )

    def source_intensity_basis(
        self,
        masks: np.ndarray,
        pupil_stack: Optional[np.ndarray] = None,
        conj_pairs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-source-point intensity basis ``X[b, r]``: ``(B, R, K, K)``.

        Abbe's aerial image is *linear* in the normalized source weights:
        ``A[b] = sum_s (j_s / sum j) X[b, s]`` with ``X`` independent of
        the source.  At a fixed mask the basis is therefore a constant,
        and any source-only quantity (SO losses, inner-Hessian products
        in bilevel SMO) can be rebuilt from it without re-imaging: rows
        are each point's ``|field|^2`` on the crop grid, over the pair
        representatives when ``conj_pairs`` applies, and
        :func:`repro.autodiff.functional.basis_combine` with the same
        pairing and ``size=N`` is the aerial image (see
        :func:`repro.autodiff.functional.incoherent_basis`).
        ``pupil_stack``/``conj_pairs`` substitute one condition's crops
        and pairing (from :meth:`condition_stacks`) for the nominal
        condition's — the process-window objective builds one basis per
        condition.
        """
        tiles, _ = as_tile_batch(masks, self.config.mask_size)
        if pupil_stack is None:
            pupil_stack, conj_pairs = self._pupil_stack.data, self._conj_pairs
        return F.incoherent_basis(
            tiles, pupil_stack, self.pupil_centres, conj_pairs
        )
