"""Optimization substrate: first-order optimizers, a CG linear solver and
the truncated Neumann inverse-Hessian application used by BiSMO."""

from .optimizers import Adam, Optimizer, SGD, make_optimizer
from .cg import CGResult, conjugate_gradient
from .neumann import neumann_inverse_hvp

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "make_optimizer",
    "CGResult",
    "conjugate_gradient",
    "neumann_inverse_hvp",
]
