"""BiSMO-UNROLL: reverse-mode differentiation through the inner loop.

Section 3.2.1 notes that unrolling many inner SO steps and
differentiating through the optimization path "results in a linear
increase in memory and computational load" — this module implements
exactly that reference strategy (reverse-mode / RMD hypergradients, as
in early DARTS-second-order and MAML) so the IFT-based methods can be
compared against it.  The T inner SGD updates are built *inside* the
autodiff graph; the outer gradient then flows through every unrolled
step.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from .objective import ProcessWindowSMOObjective

__all__ = ["unrolled_hypergradient"]


def unrolled_hypergradient(
    objective: ProcessWindowSMOObjective,
    theta_j: np.ndarray,
    theta_m: np.ndarray,
    steps: int,
    inner_lr: float,
    inner_optimizer: str = "sgd",
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Differentiate L_mo through ``steps`` unrolled inner SGD updates.

    Returns ``(hypergradient_wrt_theta_m, new_theta_j, loss_value)``.
    Memory grows linearly with ``steps`` (every intermediate imaging
    stack is retained), which is the cost the paper's IFT methods avoid.

    Only plain SGD inner updates can be unrolled here (a stateful inner
    optimizer would need its state built into the graph), so any other
    ``inner_optimizer`` is rejected instead of being silently replaced
    by SGD.
    """
    if steps < 1:
        raise ValueError("unrolled differentiation needs at least one inner step")
    if inner_optimizer.lower() != "sgd":
        raise ValueError(
            "unrolled_hypergradient supports inner_optimizer='sgd' only; "
            f"got {inner_optimizer!r}"
        )
    tm = ad.Tensor(theta_m, requires_grad=True)
    cur = ad.Tensor(theta_j, requires_grad=True)
    for _ in range(steps):
        loss_so = objective.loss(cur, tm)
        (gj,) = ad.grad(loss_so, [cur], create_graph=True)
        cur = F.sub(cur, F.mul(gj, inner_lr))
    loss_mo = objective.loss(cur, tm)
    (gm,) = ad.grad(loss_mo, [tm])
    return gm.data, cur.data.copy(), float(loss_mo.data)
