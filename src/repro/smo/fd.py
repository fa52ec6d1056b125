"""BiSMO-FD hypergradient — Equation (13).

The finite-difference strategy approximates the best response with a
single inner SO step ``theta_J* = theta_J - xi * grad_J L_so``, which
replaces the inverse inner Hessian by ``xi * I``:

    hyper = dL_mo/dtheta_M - xi * (dL_mo/dtheta_J) @ (d^2 L_so / dtheta_M dtheta_J)

This is the DARTS-style approximation; it equals BiSMO-NMN with K = 0
(Section 3.2.4), a fact the test-suite checks.  The whole expression is
one ``ctx.mixed_vjp(v, direct=xi)`` call (one mask-adjoint pass with an
intensity basis).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .bismo import HypergradientContext

__all__ = ["fd_hypergradient"]


def fd_hypergradient(
    ctx: HypergradientContext,
    inner_lr: float,
    terms: int,
    damping: float,
    warm: Optional[np.ndarray],
    iterates: Sequence[np.ndarray] = (),
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Eq. (13): direct gradient minus xi-scaled mixed second-order term.

    ``terms``, ``damping``, ``warm`` and ``iterates`` are accepted for
    interface parity with the other strategies but unused.
    """
    del terms, damping, iterates  # not used by the FD strategy
    v = ctx.grad_j  # dL_mo/dtheta_J
    return ctx.mixed_vjp(v, direct=inner_lr), warm
