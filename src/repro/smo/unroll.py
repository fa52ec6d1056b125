"""BiSMO-UNROLL: reverse-mode differentiation through the inner loop.

Section 3.2.1 notes that unrolling many inner SO steps and
differentiating through the optimization path "results in a linear
increase in memory and computational load" — this module implements
exactly that reference strategy (reverse-mode / RMD hypergradients, as
in early DARTS-second-order and MAML) so the IFT-based methods can be
compared against it.

The T inner steps are plain SGD, ``theta_{t+1} = theta_t - xi
grad_J L(theta_t, M)``, so the chain rule through them is a reverse
sweep over the oracles of :class:`repro.smo.bismo.HypergradientContext`:

    lambda_T = grad_J L(theta_T)
    lambda_t = lambda_{t+1} - xi H_t lambda_{t+1}        (t = T-1 .. 1)
    hyper    = grad_m(theta_T) - xi sum_t mixed_t(lambda_{t+1})

with ``H_t`` and ``mixed_t`` the inner Hessian and mixed product at
``theta_t``.  On the intensity basis each ``H_t`` product is an FFT-free
double backward, and every mixed product is two
:meth:`~repro.smo.objective.SourceBasisLoss.mask_grad` terms, so the
whole hypergradient is one streamed mask-adjoint pass with ``2T + 1``
terms; the earlier iterates' contexts are built one at a time and only
their terms are kept.  Time and memory grow linearly in T, which is
the cost the paper's IFT methods avoid.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .bismo import HypergradientContext

__all__ = ["unrolled_hypergradient"]


def unrolled_hypergradient(
    ctx: HypergradientContext,
    inner_lr: float,
    terms: int,
    damping: float,
    warm: Optional[np.ndarray],
    iterates: Sequence[np.ndarray] = (),
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The hypergradient through the inner SGD steps that led from
    ``iterates`` (theta_J^0 .. theta_J^{T-1}) to ``ctx``'s theta_J^T.

    ``terms``, ``damping`` and ``warm`` are accepted for interface
    parity with the IFT strategies but unused.  Only plain SGD inner
    updates can be unrolled (``BiSMO`` rejects any other inner
    optimizer), and at least one step is needed.
    """
    del terms, damping  # not used by the unroll strategy
    if len(iterates) < 1:
        raise ValueError("unrolled differentiation needs at least one inner step")
    lam = ctx.grad_j
    # The sweep collects the 2T + 1 terms of one mask-adjoint pass.
    adjoint = [ctx.grad_m_term]
    for t in reversed(range(len(iterates))):
        step = ctx.at(iterates[t])
        adjoint += [(-inner_lr * c, g) for c, g in step.mixed_terms(lam)]
        if t > 0:
            lam = lam - inner_lr * step.hvp(lam)
        del step  # one earlier-iterate context alive at a time
    return ctx.basis.mask_grad(adjoint), warm
