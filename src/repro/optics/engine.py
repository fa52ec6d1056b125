"""Unified imaging-engine interface with batched multi-tile evaluation.

Every forward-model consumer in the codebase — the SMO objectives, the
MO baselines, the benchmark harness — talks to a lithography simulator
through the same small surface, the :class:`ImagingEngine` protocol.
An engine defines ONE imaging method:

``aerial_conditions(mask, source, conditions)``
    The process-condition axis: a differentiable ``(F, [B,] N, N)``
    aerial stack across the distinct pupil conditions of a
    :class:`~repro.optics.config.ProcessWindow` — defocus floats or
    general :class:`~repro.optics.zernike.PupilAberration` specs
    (astigmatism, coma, spherical, raw phase maps) — evaluated as one
    fused ``incoherent_image_stack`` node that shares a single
    mask-spectrum FFT across all conditions.  ``mask`` may be a single
    ``(N, N)`` tile or a ``(B, N, N)`` stack of tiles; the batched form
    is one fused FFT stack rather than B independent passes (the
    paper's Abbe batching, extended across tiles).  Engines whose
    source is baked in (Hopkins/SOCS) take ``source=None``.  Dose
    corners never reach the engines — dose is an exact post-aerial
    ``dose**2`` scaling applied by the resist model, so corners sharing
    an aberration share the entire imaging pass.

and inherits the rest from the protocol, each derived from it:

``aerial(mask, source=None)``
    The nominal (aberration-free, in-focus) condition, shaped like
    ``mask``.  Engines carry no pupil condition of their own: every
    other condition reaches them through ``aerial_conditions``, from a
    window's :meth:`~repro.optics.config.ProcessWindow.conditions`.

``aerial_fast(mask, source=None)`` / ``aerial_conditions_fast(...)``
    :meth:`aerial` / :meth:`aerial_conditions` on plain arrays, returning
    numpy arrays: the same fused pass (kernels with exactly zero weight
    skipped, conjugate pairs streamed once), run on fresh constant
    tensors so no graph is recorded.  Used by ``images()``, metric
    evaluation and the harness judge.

Routing every consumer through this protocol is what lets batching and
caching (:mod:`repro.optics.cache`, which also hands out the shared
engine instances) land everywhere at once.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from .config import OpticalConfig

__all__ = ["ImagingEngine", "MaskLike", "as_tile_batch"]

MaskLike = Union[np.ndarray, "ad.Tensor"]


@runtime_checkable
class ImagingEngine(Protocol):
    """Structural type of an imaging engine.

    :class:`AbbeImaging` and :class:`HopkinsImaging` subclass it: each
    defines :meth:`aerial_conditions` and inherits the methods derived
    from it.
    """

    config: OpticalConfig

    def aerial_conditions(
        self,
        mask: MaskLike,
        source: Optional[MaskLike] = None,
        conditions: Any = (0.0,),
    ) -> "ad.Tensor":
        """Differentiable ``(F, [B,] N, N)`` aerial stack across pupil
        conditions (defocus floats or aberration specs), sharing one
        mask-spectrum FFT."""
        ...

    def aerial(
        self, mask: MaskLike, source: Optional[MaskLike] = None
    ) -> "ad.Tensor":
        """Differentiable aerial image at the nominal condition, for
        ``(N, N)`` or ``(B, N, N)`` masks."""
        stack = self.aerial_conditions(mask, source, (0.0,))
        return F.reshape(stack, stack.shape[1:])

    def aerial_fast(
        self, mask: MaskLike, source: Optional[MaskLike] = None
    ) -> np.ndarray:
        """Graph-free :meth:`aerial`, as a numpy array."""
        return self.aerial_conditions_fast(mask, source, (0.0,))[0]

    def aerial_conditions_fast(
        self,
        mask: MaskLike,
        source: Optional[MaskLike] = None,
        conditions: Any = (0.0,),
    ) -> np.ndarray:
        """Graph-free :meth:`aerial_conditions`, as a numpy array."""
        tiles, single = as_tile_batch(mask, self.config.mask_size)
        if isinstance(source, ad.Tensor):
            source = source.data
        # Fresh constant tensors: no graph is recorded, whatever the
        # caller's grad mode.
        stack = self.aerial_conditions(
            ad.Tensor(tiles[0] if single else tiles),
            None if source is None else ad.Tensor(source),
            conditions,
        )
        return stack.data


def as_tile_batch(mask: MaskLike, mask_size: int) -> Tuple[np.ndarray, bool]:
    """Normalize a mask argument to a ``(B, N, N)`` batch.

    Real masks become float64 and complex (phase-shift) masks complex128.
    Returns ``(batch, was_single)`` so callers can unwrap single-tile
    results; raises on any shape other than ``(N, N)`` / ``(B, N, N)``.
    """
    arr = mask.data if isinstance(mask, ad.Tensor) else np.asarray(mask)
    arr = np.asarray(
        arr, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64
    )
    if arr.ndim == 2:
        single = True
        arr = arr[None, :, :]
    elif arr.ndim == 3:
        single = False
    else:
        raise ValueError(
            f"mask must be (N, N) or (B, N, N); got shape {arr.shape}"
        )
    if arr.shape[-2:] != (mask_size, mask_size):
        raise ValueError(
            f"mask tiles must be ({mask_size}, {mask_size}); got {arr.shape[-2:]}"
        )
    return arr, single
