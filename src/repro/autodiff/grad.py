"""Reverse-mode differentiation drivers: ``grad``, ``backward``, HVPs.

These mirror the small slice of ``torch.autograd`` that the BiSMO solvers
need: a functional :func:`grad` with ``create_graph`` support, an exact
Hessian-vector product by double backward (:func:`hvp`), and the
central-difference :func:`numerical_gradient` / :func:`gradcheck` the
test-suite checks gradients with.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .tensor import Tensor, as_tensor, enable_grad, no_grad

__all__ = [
    "grad",
    "backward",
    "hvp",
    "gradcheck",
    "numerical_gradient",
]


def _topo_order(root: Tensor) -> List[Tensor]:
    """Topologically order the graph reachable from ``root``.

    Only tensors with ``requires_grad`` participate; traversal is
    iterative to stay safe on deep unrolled graphs.
    """
    order: List[Tensor] = []
    visited: set[int] = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._inputs:
            if id(parent) not in visited and parent.requires_grad:
                stack.append((parent, False))
    return order


def _match_grad(g: Tensor, target: Tensor) -> Tensor:
    """Coerce an incoming gradient to the dtype/shape of ``target``."""
    if g.shape != target.shape:
        g = F.sum_to(g, target.shape)
    if not target.is_complex and g.is_complex:
        g = F.real(g)
    return g


def grad(
    output: Tensor,
    inputs: Sequence[Tensor],
    grad_output: Optional[Tensor] = None,
    create_graph: bool = False,
    allow_unused: bool = False,
) -> List[Optional[Tensor]]:
    """Compute gradients of ``output`` w.r.t. ``inputs``.

    Parameters
    ----------
    output:
        The tensor to differentiate (any shape; a scalar for losses).
    inputs:
        Leaf or intermediate tensors to differentiate with respect to.
    grad_output:
        Upstream gradient; defaults to ones (scalar outputs only).
    create_graph:
        If True, the returned gradients carry their own backward graph so
        they can be differentiated again (exact HVPs).  A node whose VJP
        is graph-free (:data:`repro.autodiff.functional.GRAPH_FREE_VJPS`)
        raises ``NotImplementedError`` instead.
    allow_unused:
        If False, raise when some input is unreachable from ``output``.

    The walk visits only the nodes with a wanted input at or behind
    them, and calls a node's VJP only when one of its inputs is such a
    node: the rest feed no wanted gradient.  So a ``create_graph``
    backward to an intermediate stops there, however deep the graph
    that produced it.
    """
    inputs = list(inputs)
    if grad_output is None:
        if output.size != 1:
            raise ValueError("grad_output is required for non-scalar outputs")
        grad_output = Tensor(np.ones_like(output.data))
    grad_output = as_tensor(grad_output)

    order = _topo_order(output)
    grads: dict[int, Tensor] = {id(output): grad_output}
    wanted = {id(t) for t in inputs}
    result: dict[int, Tensor] = {}
    # Parents come first in ``order``, so one pass finds ``keep``, the
    # nodes with a wanted input at or behind them, and ``expand``, the
    # nodes with an input in ``keep`` (whose VJP feeds a wanted input).
    keep: set[int] = set()
    expand: set[int] = set()
    for node in order:
        if any(id(p) in keep for p in node._inputs):
            expand.add(id(node))
        if id(node) in expand or id(node) in wanted:
            keep.add(id(node))

    ctx = enable_grad() if create_graph else no_grad()
    with ctx:
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if id(node) in wanted:
                result[id(node)] = _match_grad(g, node)
            if node._vjp is None or id(node) not in expand:
                continue
            if create_graph and node._op in F.GRAPH_FREE_VJPS:
                raise NotImplementedError(F.GRAPH_FREE_VJPS[node._op])
            in_grads = node._vjp(g)
            for parent, ig in zip(node._inputs, in_grads):
                if ig is None or id(parent) not in keep:
                    continue
                ig = _match_grad(ig, parent)
                prev = grads.get(id(parent))
                grads[id(parent)] = ig if prev is None else F.add(prev, ig)

    out: List[Optional[Tensor]] = []
    for t in inputs:
        g = result.get(id(t))
        if g is None and not allow_unused:
            raise RuntimeError(
                "an input tensor was not used in the graph of the output "
                "(pass allow_unused=True to get None instead)"
            )
        out.append(g)
    return out


def backward(output: Tensor, grad_output: Optional[Tensor] = None) -> None:
    """Torch-style ``.backward()``: accumulate into leaf ``.grad`` slots."""
    if grad_output is None:
        if output.size != 1:
            raise ValueError("grad_output is required for non-scalar outputs")
        grad_output = Tensor(np.ones_like(output.data))
    grad_output = as_tensor(grad_output)

    order = _topo_order(output)
    grads: dict[int, Tensor] = {id(output): grad_output}
    with no_grad():
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                g = _match_grad(g, node)
                node.grad = g if node.grad is None else F.add(node.grad, g)
                continue
            in_grads = node._vjp(g)
            for parent, ig in zip(node._inputs, in_grads):
                if ig is None or not parent.requires_grad:
                    continue
                ig = _match_grad(ig, parent)
                prev = grads.get(id(parent))
                grads[id(parent)] = ig if prev is None else F.add(prev, ig)


# ----------------------------------------------------------------------
# second-order products (exact, via double backward)
# ----------------------------------------------------------------------
def hvp(
    loss_fn: Callable[[Tensor], Tensor],
    x: Tensor,
    v: Tensor,
) -> Tensor:
    """Exact Hessian-vector product ``(d2 loss / dx2) @ v``.

    ``loss_fn`` is re-evaluated at ``x`` with graph recording so that the
    first gradient is differentiable; the product is then one more
    backward pass (never forms the Hessian).
    """
    x = Tensor(x.data, requires_grad=True)
    loss = loss_fn(x)
    (g,) = grad(loss, [x], create_graph=True)
    inner = F.dot(g, v.detach())
    (hv,) = grad(inner, [x])
    return hv


# ----------------------------------------------------------------------
# verification helpers
# ----------------------------------------------------------------------
def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. one input.

    Perturbs real and imaginary parts independently and encodes the result
    with the same complex-gradient convention as the engine.
    """
    base = [t.data.copy() for t in inputs]
    target = base[index]
    out = np.zeros_like(target, dtype=np.complex128 if np.iscomplexobj(target) else np.float64)

    def eval_at(arr: np.ndarray) -> float:
        args = [Tensor(b) for b in base]
        args[index] = Tensor(arr)
        with no_grad():
            return float(fn(*args).data.real)

    it = np.nditer(target, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        for part in ([1.0] if not np.iscomplexobj(target) else [1.0, 1.0j]):
            pert = target.copy()
            pert[idx] += eps * part
            fp = eval_at(pert)
            pert = target.copy()
            pert[idx] -= eps * part
            fm = eval_at(pert)
            out[idx] += part * (fp - fm) / (2 * eps)
        it.iternext()
    return out


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> bool:
    """Check analytic grads of scalar ``fn`` against central differences."""
    inputs = [Tensor(t.data, requires_grad=True) for t in inputs]
    out = fn(*inputs)
    analytic = grad(out, inputs, allow_unused=True)
    for i, (t, g) in enumerate(zip(inputs, analytic)):
        num = numerical_gradient(fn, inputs, i, eps=eps)
        ana = np.zeros_like(num) if g is None else g.data
        if not np.allclose(ana, num, rtol=rtol, atol=atol):
            worst = np.max(np.abs(ana - num))
            raise AssertionError(
                f"gradcheck failed for input {i}: max |analytic - numeric| = {worst:.3e}"
            )
    return True
