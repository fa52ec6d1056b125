"""Source/mask parametrization — Table 1 of the paper.

Both the grayscale source ``J`` and the relaxed-binary mask ``M`` are
produced from unconstrained real parameters through a steep sigmoid:

    M = sigmoid(alpha_m * theta_M)      theta_M init: +m0 inside target
    J = sigmoid(alpha_j * theta_J)      theta_J init: +j0 inside template

The cosine activation mentioned (and rejected for stability) by
Section 3.1 is also provided for the activation ablation.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from ..optics import OpticalConfig

__all__ = [
    "mask_from_theta",
    "source_from_theta",
    "init_theta_mask",
    "init_theta_source",
    "cosine_activation",
    "mask_from_theta_cosine",
]


def mask_from_theta(theta_m: ad.Tensor, config: OpticalConfig) -> ad.Tensor:
    """Mask transmission M = sigmoid(alpha_m * theta_M) in (0, 1)."""
    return F.sigmoid(F.mul(theta_m, config.alpha_m))


def source_from_theta(theta_j: ad.Tensor, config: OpticalConfig) -> ad.Tensor:
    """Grayscale source J = sigmoid(alpha_j * theta_J) in (0, 1)."""
    return F.sigmoid(F.mul(theta_j, config.alpha_j))


def init_theta_mask(target: np.ndarray, config: OpticalConfig) -> np.ndarray:
    """theta_M init: +m0 where the target is 1, else -m0 (Table 1).

    The initial mask therefore *is* the (soft-binarized) target pattern,
    which, as the paper notes, lets SRAFs emerge during MO.
    """
    target = np.asarray(target, dtype=np.float64)
    return np.where(target >= 0.5, config.m0, -config.m0)


def init_theta_source(template: np.ndarray, config: OpticalConfig) -> np.ndarray:
    """theta_J init: +j0 where the template illuminates, else -j0 (Table 1).

    With alpha_j = 2 and j0 = 5, sigmoid(alpha_j * j0) ~= 0.99995: lit
    points start essentially at full intensity but remain trainable.
    """
    template = np.asarray(template, dtype=np.float64)
    return np.where(template >= 0.5, config.j0, -config.j0)


def cosine_activation(theta: ad.Tensor, alpha: float) -> ad.Tensor:
    """Cosine activation ``(1 - cos(alpha * theta)) / 2``.

    Section 3.1 flags this alternative as unstable (its gradient
    vanishes periodically and changes sign); kept for the activation
    ablation.
    """
    return F.mul(F.sub(1.0, F.cos(F.mul(theta, alpha))), 0.5)


def mask_from_theta_cosine(theta_m: ad.Tensor, config: OpticalConfig) -> ad.Tensor:
    """Cosine-activated mask (ablation variant of :func:`mask_from_theta`)."""
    return cosine_activation(theta_m, config.alpha_m)
