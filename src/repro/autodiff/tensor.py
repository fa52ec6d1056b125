"""Core :class:`Tensor` type for the reverse-mode autodiff engine.

The BiSMO paper implements its bilevel solvers on top of PyTorch autodiff.
PyTorch is not available in this environment, so :mod:`repro.autodiff`
provides the same capability on numpy arrays: a dynamic computation graph
built by the functional ops in :mod:`repro.autodiff.functional`, traversed
in reverse by :func:`repro.autodiff.grad.grad`.

Design notes
------------
* Two dtypes only: ``float64`` and ``complex128``.  Anything else is
  promoted on construction.
* Gradients of a real-valued loss with respect to a complex tensor ``z``
  are stored as a complex tensor encoding ``dL/dRe(z) + 1j * dL/dIm(z)``
  (the same convention PyTorch uses for real losses).  Gradients with
  respect to real tensors stay real.
* Every op's VJP is itself written with the functional ops, so calling
  :func:`repro.autodiff.grad.grad` with ``create_graph=True`` yields a
  differentiable gradient — this is what makes exact Hessian-vector
  products for BiSMO-NMN / BiSMO-CG possible.  The fused imaging
  primitive is the exception: its VJP is graph-free and refuses
  ``create_graph``.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "is_grad_enabled",
    "no_grad",
    "enable_grad",
]

_GRAD_ENABLED: bool = True


def is_grad_enabled() -> bool:
    """Return whether newly created ops will record a backward graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextlib.contextmanager
def enable_grad() -> Iterator[None]:
    """Context manager (re-)enabling graph recording inside ``no_grad``."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = True
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _coerce(data: Any) -> np.ndarray:
    """Coerce arbitrary array-likes to a float64 / complex128 ndarray
    (the graph's storage precision)."""
    arr = np.asarray(data)
    if np.iscomplexobj(arr):
        if arr.dtype != np.complex128:
            arr = arr.astype(np.complex128)
    elif arr.dtype != np.float64:
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A numpy array plus an optional backward-graph edge.

    Graph edges are recorded by the functional ops: ``_inputs`` holds the
    parent tensors and ``_vjp`` maps an upstream gradient tensor to a tuple
    of gradients aligned with ``_inputs`` (entries may be ``None``).
    """

    __slots__ = ("data", "requires_grad", "grad", "_inputs", "_vjp", "_op")

    def __init__(
        self,
        data: Any,
        requires_grad: bool = False,
        _inputs: Tuple["Tensor", ...] = (),
        _vjp: Optional[Callable[["Tensor"], Sequence[Optional["Tensor"]]]] = None,
        _op: str = "",
    ) -> None:
        self.data = _coerce(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Tensor] = None
        self._inputs = _inputs
        self._vjp = _vjp
        self._op = _op

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    @property
    def is_leaf(self) -> bool:
        return self._vjp is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        op = f", op={self._op!r}" if self._op else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag}{op})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        """Return a graph-connected copy (identity op)."""
        from . import functional as F

        return F.identity(self)

    # ------------------------------------------------------------------
    # operator sugar — all delegate to the functional layer
    # ------------------------------------------------------------------
    def __add__(self, other: Any) -> "Tensor":  # noqa: D105
        from . import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Tensor":
        from . import functional as F

        return F.sub(self, other)

    def __rsub__(self, other: Any) -> "Tensor":
        from . import functional as F

        return F.sub(other, self)

    def __mul__(self, other: Any) -> "Tensor":
        from . import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Tensor":
        from . import functional as F

        return F.div(self, other)

    def __rtruediv__(self, other: Any) -> "Tensor":
        from . import functional as F

        return F.div(other, self)

    def __neg__(self) -> "Tensor":
        from . import functional as F

        return F.neg(self)

    def __pow__(self, p: Any) -> "Tensor":
        from . import functional as F

        return F.power(self, p)

    def __getitem__(self, idx: Any) -> "Tensor":
        from . import functional as F

        return F.getitem(self, idx)

    def __matmul__(self, other: Any) -> "Tensor":
        from . import functional as F

        return F.matmul(self, other)

    # ------------------------------------------------------------------
    # method sugar
    # ------------------------------------------------------------------
    def sum(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        from . import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        from . import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: Any) -> "Tensor":
        from . import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def backward(self, grad_output: Optional["Tensor"] = None) -> None:
        """Accumulate gradients into ``.grad`` of all reachable leaves."""
        from .grad import backward

        backward(self, grad_output)


def as_tensor(value: Any, requires_grad: bool = False) -> Tensor:
    """Wrap ``value`` in a :class:`Tensor` (no-op for existing tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
