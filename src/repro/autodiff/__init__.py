"""Numpy-backed reverse-mode autodiff substrate.

PyTorch is unavailable in this offline environment, so this package
recreates the part of ``torch.autograd`` that the BiSMO bilevel solvers
require: a dynamic graph over float64/complex128 numpy arrays, functional
ops with double-backward-safe VJPs (FFTs included; the fused imaging
primitive's streamed VJP and the resist tail's recorded gradient are
the graph-free exceptions), a ``grad`` driver with ``create_graph``, and
exact Hessian-vector products by double backward.

Quick example::

    from repro import autodiff as ad
    from repro.autodiff import functional as F

    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    loss = F.sum(F.sigmoid(x) ** 2)
    (g,) = ad.grad(loss, [x])
"""

from .tensor import Tensor, as_tensor, enable_grad, is_grad_enabled, no_grad
from .grad import (
    backward,
    grad,
    gradcheck,
    hvp,
    numerical_gradient,
)
from . import functional

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "grad",
    "backward",
    "hvp",
    "gradcheck",
    "numerical_gradient",
    "functional",
]
