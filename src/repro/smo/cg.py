"""BiSMO-CG hypergradient — Equations (17)-(18).

Instead of a series expansion, solve the linear system

    [d^2 L_so / dtheta_J^2] w = dL_mo/dtheta_J

with K conjugate-gradient steps (each one Hessian-vector product), then
fuse: ``hyper = dL_mo/dtheta_M - mixed_vjp(w)``, one
``ctx.mixed_vjp(w, direct=1.0)`` call (one mask-adjoint pass with an
intensity basis).  Algorithm 2 line 10
warm-starts each solve from the previous outer iteration's ``w``, which
is propagated through the ``warm`` in/out argument.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..opt import conjugate_gradient
from .bismo import HypergradientContext

__all__ = ["cg_hypergradient"]


def cg_hypergradient(
    ctx: HypergradientContext,
    inner_lr: float,
    terms: int,
    damping: float,
    warm: Optional[np.ndarray],
    iterates: Sequence[np.ndarray] = (),
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Eq. (18): CG solve of the inverse-Hessian application.

    Returns the hypergradient and the final ``w`` (the warm start for the
    next outer iteration).  ``inner_lr`` is unused: CG needs no step-size
    scaling, one source of its occasional edge over NMN (Fig. 3(d)) — and
    its instability on indefinite Hessians explains its larger variance
    (Fig. 5); ``damping`` mitigates that.  ``iterates`` is unused
    (interface parity).
    """
    del inner_lr, iterates
    v = ctx.grad_j
    flat_shape = v.shape

    def matvec(p: np.ndarray) -> np.ndarray:
        return ctx.hvp(p.reshape(flat_shape)).ravel()

    x0 = None if warm is None else warm.ravel()
    result = conjugate_gradient(
        matvec, v.ravel(), x0=x0, max_iter=terms, damping=damping
    )
    w = result.x.reshape(flat_shape)
    hyper = ctx.mixed_vjp(w, direct=1.0)
    return hyper, w
