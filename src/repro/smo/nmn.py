"""BiSMO-NMN hypergradient — Equation (16).

The IFT hypergradient (Eq. (14)) needs the inverse inner Hessian
``[d^2 L_so / dtheta_J^2]^{-1}``; the Neumann strategy expands it as a
truncated geometric series (Lemma 2), evaluated with K Hessian-vector
products:

    H^{-1} v ~= xi * sum_{k=0}^{K} (I - xi H)^k v

then fuses through the mixed Jacobian: ``hyper = dL_mo/dtheta_M -
mixed_vjp(H^{-1} v)`` with ``v = dL_mo/dtheta_J``, one
``ctx.mixed_vjp(H^{-1} v, direct=1.0)`` call (one mask-adjoint pass
with an intensity basis).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..opt import neumann_inverse_hvp
from ..utils.seed import seeded_rng
from .bismo import HypergradientContext

__all__ = ["neumann_hypergradient"]


def _safe_series_lr(
    ctx: HypergradientContext,
    inner_lr: float,
    power_iters: int = 3,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Largest safe Neumann step: min(xi, 0.9 / lambda_max(H)).

    Lemma 2 requires ``||I - xi H|| < 1``; the paper assumes a "small
    enough learning rate".  The SMO loss (gamma=1000, eta=3000, sum over
    pixels) develops curvature well above 2/xi during optimization, which
    would make the raw series diverge, so the spectral radius is
    estimated with a few power iterations and the step clipped.

    The starting vector comes from a generator derived per call (via
    :func:`repro.utils.seed.seeded_rng`, keyed on ``seed``) so every
    call with the same seed draws the identical ``v`` regardless of how
    many hypergradients ran before it; pass ``rng`` to override.
    """
    if rng is None:
        rng = seeded_rng("bismo", "nmn", "power-iteration", seed)
    v = rng.standard_normal(ctx.grad_j.shape)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return inner_lr
    v /= norm
    lam = 0.0
    for _ in range(power_iters):
        hv = ctx.hvp(v)
        lam = abs(float(np.vdot(v.ravel(), hv.ravel())))
        hv_norm = float(np.linalg.norm(hv))
        if hv_norm <= 1e-30:
            return inner_lr
        v = hv / hv_norm
    lam = max(lam, float(np.linalg.norm(ctx.hvp(v))))
    if lam <= 0.0:
        return inner_lr
    return min(inner_lr, 0.9 / lam)


def neumann_hypergradient(
    ctx: HypergradientContext,
    inner_lr: float,
    terms: int,
    damping: float,
    warm: Optional[np.ndarray],
    iterates: Sequence[np.ndarray] = (),
    seed: int = 0,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Eq. (16): truncated-Neumann inverse-Hessian hypergradient.

    With ``terms == 0`` the series degenerates to ``xi * v`` and this
    reduces exactly to :func:`repro.smo.fd.fd_hypergradient`
    (Section 3.2.4).  ``damping``/``warm``/``iterates`` unused (interface
    parity).
    ``seed`` keys the power-iteration start vector of the safeguard
    (``BiSMO(seed=...)`` threads it through).
    """
    del damping, iterates
    v = ctx.grad_j
    lr = _safe_series_lr(ctx, inner_lr, seed=seed) if terms > 0 else inner_lr
    inv_hvp = neumann_inverse_hvp(ctx.hvp, v, terms=terms, lr=lr)
    hyper = ctx.mixed_vjp(inv_hvp, direct=1.0)
    return hyper, warm
