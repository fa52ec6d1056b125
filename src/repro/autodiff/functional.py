"""Differentiable functional ops for :mod:`repro.autodiff`.

Every op follows the same pattern: compute the forward result with numpy,
then (if grad mode is on and any input requires grad) attach a VJP closure.
VJP closures are written **in terms of these same functional ops**, so a
backward pass executed with graph recording enabled (``create_graph=True``
in :func:`repro.autodiff.grad.grad`) is itself differentiable.  The one
exception is the fused imaging primitive, :func:`incoherent_image_stack`:
its hand-written streamed VJP is graph-free, and a ``create_graph``
backward through it raises ``NotImplementedError``.  BiSMO's exact
Hessian-vector and mixed products cut the graph at the aerial image
instead (:class:`repro.smo.SourceBasisLoss`).

Complex gradients use the convention ``grad(z) = dL/dRe(z) + 1j*dL/dIm(z)``
for a real-valued loss ``L``; under this convention the VJP of a
holomorphic op ``f`` is ``g * conj(f'(z))`` and the VJP of a complex-linear
map ``A`` is ``A^H g``.
"""

from __future__ import annotations

import builtins
import contextlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from scipy.special import expit

from ..obs import span as _obs_span
from .tensor import Tensor, as_tensor, is_grad_enabled

# repro.optics imports this module back (its engines run on it).  The
# package is always entered through repro/__init__, which imports
# autodiff first, so repro.optics finishes loading here, before anything
# in it calls into this (then still partial) module.
from ..optics import fftlib
from ..optics.backend import HOST

__all__ = [
    "zeros",
    "ones",
    "zeros_like",
    "ones_like",
    "identity",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "power",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "tanh",
    "sigmoid",
    "relu",
    "sum",
    "mean",
    "reshape",
    "broadcast_to",
    "real",
    "imag",
    "conj",
    "abs2",
    "absolute",
    "make_complex",
    "fft2",
    "ifft2",
    "incoherent_image",
    "incoherent_image_stack",
    "GRAPH_FREE_VJPS",
    "incoherent_mask_adjoint",
    "incoherent_basis",
    "kernel_offsets",
    "basis_combine",
    "basis_contract",
    "corner_resist",
    "resist_corner_losses",
    "getitem",
    "scatter",
    "matmul",
    "dot",
    "sum_to",
    "clip_for_stability",
]

ArrayLike = Union[Tensor, np.ndarray, float, int, complex, list, tuple]


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def zeros(shape: Union[int, Tuple[int, ...]], dtype: Any = np.float64) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def ones(shape: Union[int, Tuple[int, ...]], dtype: Any = np.float64) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype))


def zeros_like(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    return Tensor(np.zeros_like(x.data))


def ones_like(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    return Tensor(np.ones_like(x.data))


def _make(
    out_data: np.ndarray,
    inputs: Tuple[Tensor, ...],
    vjp: Callable[[Tensor], Sequence[Optional[Tensor]]],
    op: str,
) -> Tensor:
    """Assemble an op output, recording the graph edge when appropriate."""
    requires = is_grad_enabled() and builtins.any(t.requires_grad for t in inputs)
    if requires:
        return Tensor(out_data, requires_grad=True, _inputs=inputs, _vjp=vjp, _op=op)
    return Tensor(out_data)


# ----------------------------------------------------------------------
# broadcasting support
# ----------------------------------------------------------------------
def sum_to(x: Tensor, shape: Tuple[int, ...]) -> Tensor:
    """Reduce ``x`` by summation so its shape becomes ``shape``.

    This is the adjoint of numpy broadcasting and is used by every binary
    op's VJP; it is built from ``sum``/``reshape`` so it stays
    differentiable.
    """
    x = as_tensor(x)
    if x.shape == tuple(shape):
        return x
    ndim_extra = x.ndim - len(shape)
    if ndim_extra < 0:
        raise ValueError(f"cannot sum_to from {x.shape} to {shape}")
    axes = tuple(range(ndim_extra)) + tuple(
        i + ndim_extra for i, n in enumerate(shape) if n == 1 and x.shape[i + ndim_extra] != 1
    )
    out = sum(x, axis=axes, keepdims=True) if axes else x
    return reshape(out, tuple(shape))


def _binary_inputs(a: ArrayLike, b: ArrayLike) -> Tuple[Tensor, Tensor]:
    return as_tensor(a), as_tensor(b)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def identity(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (g,)

    return _make(x.data.copy(), (x,), vjp, "identity")


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _binary_inputs(a, b)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (
            sum_to(g, a.shape) if a.requires_grad else None,
            sum_to(g, b.shape) if b.requires_grad else None,
        )

    return _make(a.data + b.data, (a, b), vjp, "add")


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _binary_inputs(a, b)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (
            sum_to(g, a.shape) if a.requires_grad else None,
            sum_to(neg(g), b.shape) if b.requires_grad else None,
        )

    return _make(a.data - b.data, (a, b), vjp, "sub")


def neg(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (neg(g),)

    return _make(-x.data, (x,), vjp, "neg")


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _binary_inputs(a, b)

    # Binary VJPs skip inputs that do not require grad: ``grad`` would
    # discard those gradients, and one of them may be a large constant
    # (a (B, R, K, K) intensity basis, a pupil stack).
    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        ga = sum_to(mul(g, conj(b)), a.shape) if a.requires_grad else None
        gb = sum_to(mul(g, conj(a)), b.shape) if b.requires_grad else None
        return (ga, gb)

    return _make(a.data * b.data, (a, b), vjp, "mul")


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = _binary_inputs(a, b)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        ga = sum_to(div(g, conj(b)), a.shape) if a.requires_grad else None
        gb = (
            sum_to(neg(mul(g, conj(div(a, mul(b, b))))), b.shape)
            if b.requires_grad
            else None
        )
        return (ga, gb)

    return _make(a.data / b.data, (a, b), vjp, "div")


def power(x: ArrayLike, p: float) -> Tensor:
    """Elementwise ``x**p`` for a real scalar exponent ``p``."""
    x = as_tensor(x)
    p = float(p)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, conj(mul(power(x, p - 1.0), p))),)

    return _make(x.data**p, (x,), vjp, f"power[{p}]")


# ----------------------------------------------------------------------
# transcendental
# ----------------------------------------------------------------------
def exp(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, conj(exp(x))),)

    return _make(out_data, (x,), vjp, "exp")


def log(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (div(g, conj(x)),)

    return _make(np.log(x.data), (x,), vjp, "log")


def sqrt(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (div(g, conj(mul(sqrt(x), 2.0))),)

    return _make(np.sqrt(x.data), (x,), vjp, "sqrt")


def sin(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, conj(cos(x))),)

    return _make(np.sin(x.data), (x,), vjp, "sin")


def cos(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (neg(mul(g, conj(sin(x)))),)

    return _make(np.cos(x.data), (x,), vjp, "cos")


def tanh(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        t = tanh(x)
        return (mul(g, conj(sub(1.0, mul(t, t)))),)

    return _make(np.tanh(x.data), (x,), vjp, "tanh")


def sigmoid(x: ArrayLike) -> Tensor:
    """Logistic sigmoid ``1 / (1 + exp(-x))`` (``scipy.special.expit``:
    no overflow, exactly 0 and 1 at the far rails)."""
    x = as_tensor(x)
    if x.is_complex:
        raise TypeError("sigmoid expects a real tensor")
    out_data = expit(x.data)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        if not is_grad_enabled():  # graph-free: reuse the forward output
            return (mul(g, out_data * (1.0 - out_data)),)
        # A graph node, recomputed: holding the output node in its own
        # closure would be a reference cycle.
        s = sigmoid(x)
        return (mul(g, mul(s, sub(1.0, s))),)

    return _make(out_data, (x,), vjp, "sigmoid")


def relu(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    if x.is_complex:
        raise TypeError("relu expects a real tensor")
    mask = (x.data > 0).astype(np.float64)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, Tensor(mask)),)

    return _make(x.data * mask, (x,), vjp, "relu")


def clip_for_stability(x: ArrayLike, lo: float, hi: float) -> Tensor:
    """Clip values, passing gradients straight through (identity VJP).

    Used to guard sigmoid steepness products against overflow without
    killing gradients at the rails.
    """
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (g,)

    return _make(np.clip(x.data, lo, hi), (x,), vjp, "clip_st")


# ----------------------------------------------------------------------
# reductions & shaping
# ----------------------------------------------------------------------
def sum(
    x: ArrayLike,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    x = as_tensor(x)
    out_data = np.sum(x.data, axis=axis, keepdims=keepdims)
    in_shape = x.shape

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        if axis is None:
            return (broadcast_to(g, in_shape),)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(in_shape) for a in axes)
        if keepdims:
            mid = g
        else:
            kd_shape = tuple(
                1 if i in axes else n for i, n in enumerate(in_shape)
            )
            mid = reshape(g, kd_shape)
        return (broadcast_to(mid, in_shape),)

    return _make(out_data, (x,), vjp, "sum")


def mean(
    x: ArrayLike,
    axis: Optional[Union[int, Tuple[int, ...]]] = None,
    keepdims: bool = False,
) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for a in axes:
            count *= x.shape[a % x.ndim]
    return div(sum(x, axis=axis, keepdims=keepdims), float(count))


def reshape(x: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (reshape(g, in_shape),)

    return _make(x.data.reshape(shape), (x,), vjp, "reshape")


def broadcast_to(x: ArrayLike, shape: Tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (sum_to(g, in_shape),)

    return _make(np.broadcast_to(x.data, shape).copy(), (x,), vjp, "broadcast_to")


# ----------------------------------------------------------------------
# complex support
# ----------------------------------------------------------------------
def real(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (g,)

    return _make(np.real(x.data).copy(), (x,), vjp, "real")


def imag(x: ArrayLike) -> Tensor:
    x = as_tensor(x)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(g, 1j),)

    return _make(np.imag(x.data).copy(), (x,), vjp, "imag")


def conj(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    if not x.is_complex:
        return x

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (conj(g),)

    return _make(np.conj(x.data), (x,), vjp, "conj")


def abs2(x: ArrayLike) -> Tensor:
    """Squared magnitude ``|x|**2`` (real output, works for complex x)."""
    x = as_tensor(x)
    out_data = (x.data * np.conj(x.data)).real

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(mul(g, 2.0), x),)

    return _make(out_data, (x,), vjp, "abs2")


def absolute(x: ArrayLike) -> Tensor:
    """``|x|`` built from differentiable primitives (non-smooth at 0)."""
    return sqrt(add(abs2(x), 1e-30))


def make_complex(re: ArrayLike, im: ArrayLike) -> Tensor:
    re_t, im_t = _binary_inputs(re, im)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (real(g), imag(g))

    return _make(re_t.data + 1j * im_t.data, (re_t, im_t), vjp, "make_complex")


# ----------------------------------------------------------------------
# FFTs (always over the last two axes, numpy "backward" normalization)
# ----------------------------------------------------------------------
def fft2(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    ntot = x.shape[-1] * x.shape[-2]

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (mul(ifft2(g), float(ntot)),)

    return _make(HOST.fft2(x.data), (x,), vjp, "fft2")


def ifft2(x: ArrayLike) -> Tensor:
    x = as_tensor(x)
    ntot = x.shape[-1] * x.shape[-2]

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (div(fft2(g), float(ntot)),)

    return _make(HOST.ifft2(x.data), (x,), vjp, "ifft2")


# ----------------------------------------------------------------------
# fused incoherent imaging (the Abbe / SOCS hot path)
# ----------------------------------------------------------------------
# Kernel crops: kernel s of an (S, K, K) stack with K < N is the K x K
# frequency window around the integer bin centres[s], in centred order
# (K and N even).  The window is one slice of the half-swapped mask
# spectrum; its K-point transform is the field sampled on the K grid
# times a unit-modulus phase that |.|^2 removes.  K exceeds twice the
# widest field support, so the K-grid intensity resamples to N exactly.


def kernel_offsets(k: int, n: int) -> np.ndarray:
    """Bin offset from its centre of every sample along a kernel axis.

    fftfreq order at ``k == n`` (the kernel is the whole grid), centred
    order ``-k/2 .. k/2 - 1`` for a crop.
    """
    if k == n:
        return (np.arange(n) + n // 2) % n - n // 2
    return np.arange(-(k // 2), k - k // 2)


def _window_starts(
    shape: Tuple[int, ...], n: int, centres: Any
) -> Optional[np.ndarray]:
    """``(S, 2)`` top-left corners of the kernels' windows in the
    half-swapped spectrum, or None for whole-grid kernels."""
    s, k = shape[0], shape[-1]
    if k == n:
        if centres is not None and np.any(centres):
            raise ValueError("whole-grid (K == N) kernels are centred on bin 0")
        return None
    c = np.asarray(centres)  # None -> a 0-d object array, rejected below
    if k > n or k % 2 or n % 2 or c.shape != (s, 2) or c.dtype.kind not in "iu":
        raise ValueError(
            f"({s}, {k}, {k}) kernel crops of an {n}-point grid need even "
            f"K < N and ({s}, 2) integer centres"
        )
    starts = n // 2 + c - k // 2
    if np.any(starts < 0) or np.any(starts > n - k):
        raise ValueError("a kernel crop's window leaves the frequency grid")
    return starts


def _sq_mag(x: np.ndarray) -> np.ndarray:
    """``|x|^2`` of a complex array, as ``square(re) += square(im)``."""
    out = np.square(x.real)
    out += np.square(x.imag)
    return out


def _half_swap(x: np.ndarray) -> np.ndarray:
    """fftshift over the last two (even) axes; its own inverse."""
    h, w = x.shape[-2] // 2, x.shape[-1] // 2
    out = np.empty(x.shape, x.dtype)
    out[..., :h, :w] = x[..., h:, w:]
    out[..., :h, w:] = x[..., h:, :w]
    out[..., h:, :w] = x[..., :h, w:]
    out[..., h:, w:] = x[..., :h, :w]
    return out


def _resample(x: np.ndarray, size: int, k: int) -> np.ndarray:
    """``x`` on a ``size`` grid through the band ``|f| < k/2``, times
    ``(K/N)^2``.

    ``size = N`` upsamples a band-limited K-grid intensity exactly (its
    fields carry an ``(N/K)^2`` amplitude); ``size = K`` is the adjoint
    times ``(N/K)^2``: the low-pass that gives each field's mask adjoint
    its whole-grid form.  The K grid's Nyquist bin, empty for a
    band-limited intensity, is dropped both ways.  Real in, real out.
    """
    h, m = k // 2, x.shape[-1]
    spec = HOST.fft2(x)
    band = np.zeros(x.shape[:-2] + (size, size), np.complex128)
    halves = (
        (slice(0, h), slice(0, h)),
        (slice(size - h + 1, size), slice(m - h + 1, m)),
    )
    for rows_out, rows_in in halves:
        for cols_out, cols_in in halves:
            band[..., rows_out, cols_out] = spec[..., rows_in, cols_in]
    y = HOST.ifft2(band, overwrite_x=True)
    return (y if np.iscomplexobj(x) else y.real) * ((k / max(size, m)) ** 2)


def _gather(
    spec: np.ndarray, kern: np.ndarray, corners: Optional[list]
) -> np.ndarray:
    """``(B, C, K, K)`` products of the kernels ``kern`` with their
    windows (top-left ``corners``) of the ``(B, N, N)`` spectrum."""
    if corners is None:  # whole-grid kernels: the window is the spectrum
        return kern[None] * spec[:, None]
    k = kern.shape[-1]
    block = np.empty((spec.shape[0], len(corners), k, k), np.complex128)
    for i, (r0, c0) in enumerate(corners):
        np.multiply(spec[:, r0 : r0 + k, c0 : c0 + k], kern[i], out=block[:, i])
    return block


def _check_incoherent_args(
    mask: Tensor, pupil_stack: Tensor, weights: Tensor
) -> Tuple[int, int]:
    """Validate shapes/dtypes of a fused pass; return ``(S, K)``."""
    if pupil_stack.ndim != 3 or pupil_stack.shape[-2] != pupil_stack.shape[-1]:
        raise ValueError(
            f"pupil_stack must be (S, K, K); got {pupil_stack.shape}"
        )
    s, k = pupil_stack.shape[0], pupil_stack.shape[-1]
    n = mask.shape[-1] if mask.ndim else 0
    if mask.ndim not in (2, 3) or mask.shape[-2] != n or n < k:
        raise ValueError(
            f"mask must be (N, N) or (B, N, N) with N >= {k}; got {mask.shape}"
        )
    if weights.shape != (s,):
        raise ValueError(f"weights must be ({s},); got {weights.shape}")
    if weights.is_complex:
        raise TypeError("incoherent_image weights must be real")
    if pupil_stack.requires_grad:
        raise ValueError(
            "incoherent_image does not propagate gradients to the pupil "
            "stack (it is a cached optical constant); detach it first"
        )
    return s, k


def _conj_pair_reps(conj_pairs: Any, s: int) -> np.ndarray:
    """Validate an involutive conjugate pairing; return representatives.

    ``conj_pairs[i] = j`` declares ``kernel_j(f) == kernel_i(-f)``; the
    map must be an involution over ``range(s)``.  Representatives are
    the indices with ``conj_pairs[i] >= i`` (each pair's lower index,
    plus every self-paired kernel).
    """
    cp = np.asarray(conj_pairs)
    if cp.shape != (s,) or not np.issubdtype(cp.dtype, np.integer):
        raise ValueError(f"conj_pairs must be ({s},) integer; got {cp.shape}")
    if not np.array_equal(cp[cp], np.arange(s)):
        raise ValueError("conj_pairs must be an involution over range(S)")
    return np.nonzero(cp >= np.arange(s))[0]


def _pair_setup(
    conj_pairs: Any, s: int, real_path: bool
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Validate a pairing and decide whether the streamed loops may use it.

    The involution is always validated when a pairing is supplied; it is
    *used* only on the all-real path (``real_path``) where the conjugate
    field identity ``F_{-sigma} = conj(F_{+sigma})`` holds.  Returns
    ``(cp, reps)`` or ``(None, None)``.
    """
    if conj_pairs is None:
        return None, None
    reps_all = _conj_pair_reps(conj_pairs, s)
    if not real_path:
        return None, None
    return np.asarray(conj_pairs), reps_all


def _fold_weights(w: np.ndarray, cp: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Representatives' pair-summed weights: a mate rides its rep's field."""
    mates = cp[reps]
    return w[reps] + np.where(mates != reps, w[mates], 0.0)


def _streamed(
    kern: np.ndarray,
    starts: Optional[np.ndarray],
    cp: Any,
    reps: Any,
    weights: Sequence[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray], List[np.ndarray]]:
    """``(kernels, window starts, weights)`` of the fields a pass
    transforms: the pair representatives with pair-summed weights when
    ``reps`` is given, else the whole stack."""
    if reps is None:
        return kern, starts, list(weights)
    starts = None if starts is None else starts[reps]
    return kern[reps], starts, [_fold_weights(w, cp, reps) for w in weights]


def _chunks(sizes: Sequence[int], csize: int) -> List[Tuple[int, int, int]]:
    """Every stack's source chunks as ``(stack, lo, hi)`` blocks, in
    stack order.

    A stack of R kernels splits into ``ceil(R / csize)`` blocks whose
    sizes differ by at most one (49 kernels at chunk 16: 12, 12, 12,
    13), so no block is larger than the chunk and no short straggler
    leaves a thread idle at the end of a stack.  The split depends only
    on R and the chunk.
    """
    blocks: List[Tuple[int, int, int]] = []
    for fi, r in enumerate(sizes):
        n = -(-r // csize)
        blocks += [(fi, r * j // n, r * (j + 1) // n) for j in range(n)]
    return blocks


def _condition_span(fi: int, stacks: int) -> Any:
    """``engine.condition`` around a block of a multi-stack pass; a
    single stack is no condition fan-out and opens none."""
    if stacks == 1:
        return contextlib.nullcontext()
    return _obs_span("engine.condition", index=fi)


def _stream_forward(
    spec: np.ndarray,
    kernels: Sequence[np.ndarray],
    w: np.ndarray,
    pair_info: Sequence[Tuple[Any, Any]],
    csize: int,
    starts: Optional[np.ndarray],
) -> np.ndarray:
    """``(F, B, N, N)`` streamed weighted incoherent sums, one per stack.

    ``spec`` is the ``(B, N, N)`` mask spectrum (half-swapped for crops)
    that every stack shares.  Every ``(stack, chunk)`` block — window
    gather fused with the kernel multiply, K-point transform, ``|.|^2``,
    weighted contraction — is one
    :func:`repro.optics.fftlib.map_conditions` task; the blocks' K-grid
    images add here in block order, and each stack's sum resamples to N
    after its last block.  A ``MemoryError`` inside the pass halves the
    chunk and retries it (:func:`repro.optics.fftlib.run_with_chunk_fallback`).
    """
    b, n, k = spec.shape[0], spec.shape[-1], kernels[0].shape[-1]
    stacks: List[Tuple[np.ndarray, np.ndarray, Optional[list]]] = []
    for kern, (cp, reps) in zip(kernels, pair_info):
        kern_h, st, (w_h,) = _streamed(kern, starts, cp, reps, [w])
        # A kernel whose (pair-summed) weight is exactly zero adds nothing
        # to the sum, so it is skipped: exact, and binary template sources
        # zero about half their points.  The VJP still visits every kernel
        # (the weight gradient at a zero weight is not zero).
        live = np.flatnonzero(w_h)
        if live.size < w_h.size:
            kern_h, w_h = kern_h[live], w_h[live]
            st = None if st is None else st[live]
        stacks.append((kern_h, w_h, None if st is None else st.tolist()))

    def attempt(c: int) -> np.ndarray:
        blocks = _chunks([w_h.size for _, w_h, _ in stacks], c)

        def image(i: int) -> np.ndarray:
            fi, lo, hi = blocks[i]
            kern_h, w_h, corners = stacks[fi]
            corners = None if corners is None else corners[lo:hi]
            with _condition_span(fi, len(stacks)):
                fields = HOST.ifft2(
                    _gather(spec, kern_h[lo:hi], corners), overwrite_x=True
                )
                part = w_h[lo:hi] @ _sq_mag(fields).reshape(b, hi - lo, k * k)
                return part.reshape(b, k, k)

        # A stack without live kernels has no blocks and stays zero.
        out = np.zeros((len(stacks), b, n, n), np.float64)
        with contextlib.closing(
            fftlib.map_conditions(image, len(blocks))
        ) as parts:
            for fi, lo, hi in blocks:
                if lo == 0:
                    acc = np.zeros((b, k, k), np.float64)
                acc += next(parts)
                if hi == stacks[fi][1].size:  # the stack's last block
                    out[fi] = _resample(acc, n, k) if k < n else acc
        return out

    return fftlib.run_with_chunk_fallback(attempt, csize)


def incoherent_image(
    mask: ArrayLike,
    pupil_stack: ArrayLike,
    weights: ArrayLike,
    chunk: Optional[int] = None,
    conj_pairs: Optional[np.ndarray] = None,
    centres: Optional[np.ndarray] = None,
) -> Tensor:
    """Fused weighted incoherent sum ``I[b] = sum_s w_s |IFFT2(H_s FFT2(M_b))|^2``.

    The one-stack case of :func:`incoherent_image_stack`, shaped like
    ``mask`` (``(N, N)`` or ``(B, N, N)``): one graph node in place of
    the six composed ops of :func:`incoherent_image_composed`, with the
    stack primitive's streamed forward and VJP.  ``conj_pairs`` is the
    stack's ``+/-sigma`` pairing, or None; ``centres`` locates crops.
    """
    mask = as_tensor(mask)
    out = incoherent_image_stack(
        mask, [pupil_stack], weights, chunk, [conj_pairs], centres
    )
    return reshape(out, mask.shape)


def _wrap_grad(arr: Optional[np.ndarray], single: bool) -> Optional[Tensor]:
    if arr is None:
        return None
    return Tensor(arr[0] if single else arr)


def _stack_setup(
    mask: Tensor,
    stacks: Sequence[Tensor],
    weights: Tensor,
    chunk: Optional[int],
    conj_pairs: Optional[Sequence[Optional[np.ndarray]]],
    centres: Any,
) -> Tuple[int, Tuple[Tuple[Any, Any], ...], Optional[np.ndarray]]:
    """``(chunk, per-stack pairing, window corners)`` of a streamed
    multi-stack pass, with every argument validated."""
    for st in stacks:
        s, _ = _check_incoherent_args(mask, st, weights)
        if st.shape != stacks[0].shape:
            raise ValueError("every kernel stack of one call must share a shape")
    starts = _window_starts(stacks[0].shape, mask.shape[-1], centres)
    if conj_pairs is None:
        conj_pairs = (None,) * len(stacks)
    elif len(conj_pairs) != len(stacks):
        raise ValueError(
            f"conj_pairs must have one entry per stack "
            f"({len(stacks)}); got {len(conj_pairs)}"
        )
    csize = fftlib.get_stream_chunk() if chunk is None else int(chunk)
    if csize < 1:
        raise ValueError(f"chunk must be >= 1; got {csize}")
    pair_info = tuple(
        _pair_setup(cp_f, s, not mask.is_complex and not st.is_complex)
        for st, cp_f in zip(stacks, conj_pairs)
    )
    return csize, pair_info, starts


def _mask_spectrum(tiles: np.ndarray, starts: Any) -> np.ndarray:
    """The ``(B, N, N)`` mask spectrum the streamed passes window:
    half-swapped for crops, the transform itself for whole-grid kernels."""
    fm = HOST.fft2(tiles)
    return fm if starts is None else _half_swap(fm)


class _AdjointStack(NamedTuple):
    """One kernel stack as the streamed adjoint walks it."""

    kern: np.ndarray  # (R, K, K) kernels whose fields are recomputed
    corners: Optional[list]  # their windows' corners; None: whole grid
    weights: np.ndarray  # (R, T) every term's weights w_t
    upstream: Optional[np.ndarray]  # (B, T, K, K) 2 * g_t; None: no mask grad
    gdr: Optional[np.ndarray]  # (B, K*K, 1) weight-gradient upstream
    pairs: Optional[Tuple[np.ndarray, np.ndarray]]  # (reps, mates) if paired


def _backward_block(
    spec: np.ndarray, stack: _AdjointStack, lo: int, hi: int, gd_complex: bool
) -> Tuple[Any, Any]:
    """One ``(stack, chunk)`` block of the streamed adjoint (graph-free).

    Recomputes kernels ``lo:hi``'s ``(B, C, K, K)`` coherent fields and
    returns ``(val, part)``: the chunk's weight-gradient contraction
    ``(C,)`` against the first term's upstream (None when not needed)
    and its mask-gradient spectrum ``conj(H_s) * FFT(U_s F_s)`` with the
    folded upstream ``U_s = sum_t 2 w_t[s] g_t`` — ``(B, C, K, K)``
    per-field spectra for crops, their ``(B, N, N)`` sum for whole-grid
    kernels, None without terms.  The FFT is linear, so the terms fold
    into ``U_s`` before the block's one forward transform and one
    ``conj(H)`` contraction, however many terms there are.  On the
    paired path ``w_t`` is the pair-summed weight: for a real mask,
    kernels and upstream, ``F_s' = conj(F_s)`` makes the mate's term the
    conjugate of the representative's own, so both share the real part
    the mask gradient keeps.
    """
    b = spec.shape[0]
    kern = stack.kern[lo:hi]
    corners = None if stack.corners is None else stack.corners[lo:hi]
    fields = HOST.ifft2(_gather(spec, kern, corners), overwrite_x=True)
    val = None
    if stack.gdr is not None:
        intens = _sq_mag(fields)
        if gd_complex:
            intens = intens.astype(np.complex128)
        val = np.sum(
            (intens.reshape(b, hi - lo, -1) @ stack.gdr)[:, :, 0], axis=0
        )
        del intens  # gone before the transforms allocate
    if stack.upstream is None:
        return val, None
    fields *= np.einsum("ct,btij->bcij", stack.weights[lo:hi], stack.upstream)
    t = HOST.fft2(fields, overwrite_x=True)
    if corners is None:
        return val, np.einsum("cij,bcij->bij", np.conj(kern), t)
    return val, np.multiply(np.conj(kern), t, out=t)


def _stream_adjoint(
    spec: np.ndarray,
    kernels: Sequence[np.ndarray],
    pair_info: Sequence[Tuple[Any, Any]],
    terms: Sequence[Tuple[np.ndarray, np.ndarray]],
    csize: int,
    need_mask: bool,
    need_w: bool,
    op: str,
    starts: Optional[np.ndarray],
    real_mask: bool,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Graph-free streamed adjoint of the incoherent image, summed over
    kernel stacks (the condition axis) and ``terms``.

    ``terms`` holds ``(w, g)`` pairs: source weights ``(S,)`` and an
    upstream gradient ``(F, B, N, N)`` with one plane per stack.  Returns
    ``(gm, gw)``: the ``(B, N, N)`` host mask gradient of ``sum_t sum_f
    <I_f(M; w_t), g_t[f]>`` (one final IFFT for every stack and term;
    real for a ``real_mask``) and the first term's ``(S,)`` weight
    gradient; either is None when not requested.  Each stack's terms
    fold into one ``(B, T, K, K)`` upstream (each ``g_t`` low-passed
    onto the K grid once) and one ``(R, T)`` weight table, so every
    recomputed field takes one forward transform whatever T.

    Every ``(stack, chunk)`` block (:func:`_backward_block`) is one
    :func:`repro.optics.fftlib.map_conditions` task.  Here, in block
    order, the weight gradients add and the blocks' spectra slice-add
    into their stack's *private* frequency accumulator; the stacks then
    reduce in fixed stack order.  The reduction tree does not depend on
    scheduling, so an N-thread backward is bitwise identical to the
    serial one.  A ``MemoryError`` inside the pass halves the chunk and
    retries it (:func:`repro.optics.fftlib.run_with_chunk_fallback`).
    """
    b, n = spec.shape[0], spec.shape[-1]
    s, k = kernels[0].shape[0], kernels[0].shape[-1]
    # Conjugate pairing additionally needs a real upstream gradient
    # (the mate's term is the conjugate of the representative's).
    gd_complex = builtins.any(np.iscomplexobj(g) for _, g in terms)
    gw_dtype = np.complex128 if gd_complex else np.float64
    stacks: List[_AdjointStack] = []
    for fi, (kern, (cp, reps)) in enumerate(zip(kernels, pair_info)):
        if gd_complex:
            cp = reps = None
        kern_h, st, ws = _streamed(kern, starts, cp, reps, [w for w, _ in terms])
        grads = [g[fi] for _, g in terms]
        if k < n:
            grads = [_resample(g, k, k) for g in grads]
        gdr = None
        if need_w:
            # <g, upsample(|F|^2)> = <adjoint(g), |F|^2>: (K/N)^2 * lowpass.
            gdr = grads[0] * ((k / n) ** 2) if k < n else grads[0]
            gdr = gdr.reshape(b, k * k, 1)
        upstream = None
        if need_mask:
            upstream = np.stack(grads, axis=1)
            upstream *= 2.0
        stacks.append(_AdjointStack(
            kern_h,
            None if st is None else st.tolist(),
            np.stack(ws, axis=1),
            upstream,
            gdr,
            None if reps is None else (reps, cp[reps]),
        ))

    def attempt(c: int) -> Tuple[Any, Any]:
        # Fresh accumulators per attempt: a MemoryError mid-pass must not
        # leave half-accumulated gradients for the retry to double-count.
        blocks = _chunks([st.kern.shape[0] for st in stacks], c)

        def block(i: int) -> Tuple[Any, Any]:
            fi, lo, hi = blocks[i]
            with _condition_span(fi, len(stacks)):
                return _backward_block(spec, stacks[fi], lo, hi, gd_complex)

        acc_total: Any = None
        gw: Any = None
        acc: Any = None
        gw_f: Any = None
        with contextlib.closing(
            fftlib.map_conditions(block, len(blocks))
        ) as results:
            for fi, lo, hi in blocks:
                stack = stacks[fi]
                if lo == 0:  # the stack's private accumulators
                    acc = np.zeros((b, n, n), np.complex128) if need_mask else None
                    gw_f = np.zeros(s, gw_dtype) if need_w else None
                val, part = next(results)
                if need_w:
                    if stack.pairs is None:
                        gw_f[lo:hi] += val
                    else:
                        # |F[s']|^2 == |F[s]|^2: mates share the contraction.
                        reps, mates = stack.pairs
                        paired = mates[lo:hi] != reps[lo:hi]
                        gw_f[reps[lo:hi]] += val
                        gw_f[mates[lo:hi][paired]] += val[paired]
                if need_mask:
                    if stack.corners is None:
                        acc += part
                    else:
                        # Crops: each field's K x K spectrum slice-adds
                        # at its window.
                        for j, (r0, c0) in enumerate(stack.corners[lo:hi]):
                            acc[:, r0 : r0 + k, c0 : c0 + k] += part[:, j]
                del part  # freed before the next block is awaited
                if hi == stack.kern.shape[0]:  # fixed stack-order reduction
                    if need_mask:
                        acc_total = acc if acc_total is None else acc_total + acc
                    if need_w:
                        gw = gw_f if gw is None else gw + gw_f
        return acc_total, gw

    with _obs_span("imaging.vjp", op=op, stacks=len(kernels)):
        acc_total, gw = fftlib.run_with_chunk_fallback(attempt, csize)
        gm = None
        if need_mask:
            if starts is not None:
                acc_total = _half_swap(acc_total)
            gm = HOST.ifft2(acc_total, overwrite_x=True)
            if real_mask:
                gm = np.ascontiguousarray(gm.real)  # dL/dRe(M): a real gradient
    return gm, gw


def incoherent_mask_adjoint(
    mask: ArrayLike,
    pupil_stacks: Sequence[ArrayLike],
    terms: Sequence[Tuple[ArrayLike, ArrayLike]],
    conj_pairs: Sequence[Optional[np.ndarray]],
    centres: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Graph-free mask gradient of several weighted incoherent images.

    With ``I_f(M; w) = sum_s w_s |IFFT2(H^f_s FFT2(M))|^2`` for the F
    kernel stacks ``pupil_stacks`` and ``terms = [(w_t, g_t), ...]``
    (``w_t`` real ``(S,)`` weights, ``g_t`` an ``(F, [B,] N, N)``
    upstream gradient with one plane per stack), returns

        d/dM  sum_t sum_f  < I_f(M; w_t), g_t[f] >

    shaped like ``mask``, as a numpy array (real for a real mask).  It
    is the streamed VJP of :func:`incoherent_image_stack` with several
    (weights, upstream) pairs folded into one pass: the FFT is linear,
    so the terms fold into one upstream ``sum_t 2 w_t[s] g_t`` per
    recomputed coherent field, which takes one forward transform and
    one ``conj(H)`` contraction however many terms there are; all terms
    and stacks share one mask FFT and one final IFFT (each term's
    gradient is low-passed onto the crop grid once per stack).  BiSMO's
    hypergradient is one such call with two terms, BiSMO-UNROLL's one
    with ``2T + 1``.  ``conj_pairs`` takes one entry per stack and
    ``centres`` locates crops, as in :func:`incoherent_image_stack`; the
    chunk size is the scoped :func:`repro.optics.fftlib.get_stream_chunk`.
    """
    mask = as_tensor(mask)
    stacks = tuple(as_tensor(p) for p in pupil_stacks)
    if not stacks or not terms:
        raise ValueError("incoherent_mask_adjoint needs stacks and terms")
    single = mask.ndim == 2
    host_terms: List[Tuple[np.ndarray, np.ndarray]] = []
    for w, g in terms:
        wt, gt = as_tensor(w), as_tensor(g)
        csize, pair_info, starts = _stack_setup(
            mask, stacks, wt, None, conj_pairs, centres
        )
        if gt.shape != (len(stacks),) + mask.shape:
            raise ValueError(
                f"upstream gradient must be {(len(stacks),) + mask.shape}; "
                f"got {gt.shape}"
            )
        host_terms.append((wt.data, gt.data[:, None] if single else gt.data))
    spec = _mask_spectrum(mask.data[None] if single else mask.data, starts)
    gm, _ = _stream_adjoint(
        spec, [st.data for st in stacks], pair_info, host_terms, csize,
        True, False, "incoherent_mask_adjoint", starts, not mask.is_complex,
    )
    if gm is None:
        raise RuntimeError("the streamed adjoint returned no mask gradient")
    return gm[0] if single else gm


#: Ops whose VJP returns graph-free gradients, with the message
#: :func:`repro.autodiff.grad.grad` raises (``NotImplementedError``) when
#: a ``create_graph`` backward reaches one of them.
GRAPH_FREE_VJPS: Dict[str, str] = {
    "incoherent_image_stack": (
        "a create_graph backward through incoherent_image_stack is not "
        "supported: its streamed VJP is graph-free.  Take second "
        "derivatives through imaging from the intensity basis "
        "(repro.smo.SourceBasisLoss, as BiSMO's HypergradientContext "
        "does), or image with composed ops, as the composed oracle "
        "ComposedAbbeImaging in tests/oracles.py does"
    ),
    "resist_corner_grad": (
        "a create_graph backward through resist_corner_grad (the resist "
        "tail's recorded gradient) is not supported: the tail "
        "differentiates twice, not three times.  A third derivative of "
        "the loss needs the composed resist chain, as the reference "
        "dose_resist in tests/oracles.py builds it"
    ),
}


def incoherent_image_stack(
    mask: ArrayLike,
    pupil_stacks: Sequence[ArrayLike],
    weights: ArrayLike,
    chunk: Optional[int] = None,
    conj_pairs: Optional[Sequence[Optional[np.ndarray]]] = None,
    centres: Optional[np.ndarray] = None,
) -> Tensor:
    """Fused weighted incoherent images sharing ONE mask FFT.

    Computes ``out[f, b] = sum_s w_s |IFFT2(H^f_s FFT2(M_b))|^2`` for a
    *sequence* of F kernel stacks — the process-condition axis: each
    stack is the shifted-pupil (or SOCS kernel) stack at one pupil
    condition, all sharing the same real ``(S,)`` weights (normalized
    source weights for Abbe, SOCS eigenvalues for Hopkins).  Output
    shape is ``(F, B, N, N)`` for a batched mask, ``(F, N, N)`` for a
    single tile; :func:`incoherent_image` is the F = 1 case.  ``mask``
    may be real or complex; the kernel stacks are constants (no
    gradient).  This is the one forward of the weighted incoherent sum:
    every aerial image, with or without a graph, runs it.

    Band-limited kernels: every stack is ``(S, K, K)``, K <= N.  At
    K == N the kernels are whole fftfreq-layout spectra (SOCS kernels,
    and Abbe pupils wherever a crop would not halve the grid) and
    ``centres`` is None; below it kernel s is the K x K window around
    the integer bin ``centres[s]`` (one ``(S, 2)`` array for every
    stack; layout in :func:`kernel_offsets`) and each field's pass —
    window gather, K-point transform, ``|.|^2``, weighted add — runs on
    the K grid, with one exact zero-padded resample to N per tile and
    stack.

    Forward: the mask spectrum ``FFT2(M)`` is computed once and streamed
    through every stack in source-axis chunks of ``chunk`` kernels
    (default :func:`repro.optics.fftlib.get_stream_chunk`).  Each chunk
    is one transient ``(B, chunk, K, K)`` transform block, so peak
    working memory is ``O(B * chunk * K^2)`` per block in flight instead
    of the composed path's several *retained* ``O(B * S * N^2)``
    intermediates; only the ``(B, N, N)`` mask spectra are saved for the
    backward pass.  Kernels whose weight is exactly zero are skipped
    (exact).

    Backward: the hand-written VJP *recomputes* the per-chunk coherent
    fields instead of retaining them, emitting mask gradients

    ``gM[b] = IFFT2( sum_f sum_s conj(H^f_s) * FFT2(2 w_s g[f,b] F[f,b,s]) )``

    (the backward-normalization factors cancel; every stack's chunks
    accumulate into one frequency-domain gradient closed by a single
    final IFFT; crops low-pass ``g`` onto the K grid first and slice-add
    each field's spectrum at its window; each recomputed field takes one
    forward transform, and :func:`incoherent_mask_adjoint`'s several
    terms fold into its one upstream ``sum_t 2 w_t[s] g_t`` before it)
    and weight gradients ``gw[s] = sum_f sum_b <g[f,b], |F[f,b,s]|^2>``
    for every kernel, zero-weight ones included.

    Conjugate-pair streaming: ``conj_pairs`` is an optional per-stack
    sequence.  An entry declares the frequency-reversal pairing
    ``kernel_{conj_pairs[s]}(f) == kernel_s(-f)`` (Abbe's shifted pupils
    for a point-symmetric source grid satisfy it, crops with negated
    centres; see ``AbbeImaging``) or is None.  For a *real* mask and
    *real* kernels the paired field is the complex conjugate of its
    mate's — ``F[b,s'] == conj(F[b,s])`` — so only one kernel per pair
    is transformed and both weights ride the shared field, halving the
    FFT work in the forward and in the streamed VJP.  For a real
    upstream gradient the mate's mask-gradient term is then the
    complex conjugate of its representative's own (times ``w_s'``
    instead of ``w_s``), so the real mask gradient takes both terms
    from one accumulator under the pair-summed weight
    ``w_s + w_s'``.  A pairing is always validated, and ignored (exact
    fallback) for complex masks, complex kernels or a complex upstream
    gradient: the structural pairing survives an even aberration such
    as defocus, the conjugate *field* identity does not.

    Double backward: the streamed VJP returns graph-free gradients, so
    :func:`repro.autodiff.grad.grad` refuses a ``create_graph``
    backward through this node with ``NotImplementedError``.  Every
    second derivative through imaging (BiSMO's exact HVP and
    mixed-product oracles, and its unrolled hypergradient) cuts the
    graph at the aerial image instead: it works from the intensity
    basis (:func:`incoherent_basis`) and reaches the mask through the
    graph-free :func:`incoherent_mask_adjoint`.

    Parallelism: every ``(stack, chunk)`` block of the forward and of
    the streamed VJP is independent (blocks share only the read-only
    mask spectrum and kernels), so each pass runs them as one flat list
    of tasks on the :func:`repro.optics.fftlib.map_conditions` pool
    (at most ``REPRO_COND_WORKERS`` / ``fftlib.set_condition_workers``
    running, each with its share of the unified worker budget for its
    own FFTs, and one finished block may wait for its turn beyond them,
    so a thread that finishes ahead of a slow block starts the next).
    Each stack's chunks are of near-equal size (``ceil(S / chunk)`` of
    them), so no short straggler idles a thread.  A task does the
    per-field work — gather, multiply, transforms, ``|.|^2``,
    contractions — into its own buffers; the
    adds, each stack's resample and the slice-adds into each stack's
    private accumulator run on the caller's thread in block order, and
    the stacks reduce in fixed stack order.  So the result is **bitwise
    identical** for any worker count — every oracle and gradcheck sees
    the exact same numbers as a serial run.
    """
    mask = as_tensor(mask)
    weights = as_tensor(weights)
    stacks = tuple(as_tensor(p) for p in pupil_stacks)
    if not stacks:
        raise ValueError("incoherent_image_stack needs at least one stack")
    csize, pair_info, starts = _stack_setup(
        mask, stacks, weights, chunk, conj_pairs, centres
    )
    single = mask.ndim == 2
    # ONE (B, N, N) spectrum for every condition, shared read-only
    # across the condition pool's threads.
    spec = _mask_spectrum(mask.data[None] if single else mask.data, starts)
    w = weights.data

    with _obs_span(
        "imaging.forward", op="incoherent_image_stack", stacks=len(stacks)
    ):
        out = _stream_forward(
            spec, [st.data for st in stacks], w, pair_info, csize, starts
        )
    out_data = out[:, 0] if single else out

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        gm, gw = _stream_adjoint(
            spec,
            [st.data for st in stacks],
            pair_info,
            [(w, g.data[:, None] if single else g.data)],
            csize,
            mask.requires_grad,
            weights.requires_grad,
            "incoherent_image_stack",
            starts,
            not mask.is_complex,
        )
        return (
            (_wrap_grad(gm, single),)
            + (None,) * len(stacks)
            + (_wrap_grad(gw, False),)
        )

    return _make(
        out_data, (mask,) + stacks + (weights,), vjp, "incoherent_image_stack"
    )


# ----------------------------------------------------------------------
# intensity basis (FFT-free source dependence at a fixed mask)
# ----------------------------------------------------------------------
def incoherent_basis(
    mask: ArrayLike,
    kernels: ArrayLike,
    centres: Optional[np.ndarray] = None,
    conj_pairs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-kernel intensities of the fused sum, unreduced: ``(B, R, K, K)``.

    Row r of tile b is kernel r's ``|field|^2`` on the K grid, the term
    :func:`incoherent_image_stack` weights and adds, so
    ``basis_combine(X, w, conj_pairs, N)`` is that image.  On the
    all-real path a pairing keeps only the R pair representatives
    (``|F_{s'}|^2 == |F_s|^2``); otherwise R = S.  Sized against
    available memory before allocating.  Each tile is one block of the
    :func:`repro.optics.fftlib.map_conditions` fan-out, writing its own
    row, so any worker count gives the serial basis bitwise.
    """
    from ..utils.memory import require_memory

    mask = as_tensor(mask)
    kern = np.asarray(kernels)
    tiles = mask.data[None] if mask.ndim == 2 else mask.data
    s, k = kern.shape[0], kern.shape[-1]
    starts = _window_starts(kern.shape, tiles.shape[-1], centres)
    _, reps = _pair_setup(
        conj_pairs, s, not np.iscomplexobj(tiles) and not np.iscomplexobj(kern)
    )
    if reps is not None:
        kern = kern[reps]
        starts = None if starts is None else starts[reps]
    shape = (tiles.shape[0], kern.shape[0], k, k)
    require_memory(8 * int(np.prod(shape)), f"{shape} float64 intensity basis")
    spec = _mask_spectrum(tiles, starts)
    corners = None if starts is None else starts.tolist()
    out = np.empty(shape, np.float64)

    def fill(b: int) -> None:
        # Tile-at-a-time keeps the working set cache-sized; per-tile
        # results are bitwise identical to the full-stack transform.
        block = _gather(spec[b : b + 1], kern, corners)
        out[b] = _sq_mag(HOST.ifft2(block, overwrite_x=True))[0]

    list(fftlib.map_conditions(fill, shape[0]))
    return out


def _check_basis(basis: Tensor) -> Tuple[int, int, int]:
    """Validate a ``(B, R, K, K)`` basis; return ``(B, R, K * K)``."""
    if basis.ndim != 4:
        raise ValueError(f"basis must be (B, R, K, K); got {basis.shape}")
    if basis.is_complex:
        raise TypeError("basis must be real")
    if basis.requires_grad:
        raise ValueError(
            "basis contractions do not propagate gradients to the basis "
            "(a constant at a fixed mask); detach it first"
        )
    b, r, k1, k2 = basis.shape
    return b, r, k1 * k2


def _basis_rows(
    conj_pairs: Any, r: int
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """``(reps, row)`` of a basis with ``r`` rows under ``conj_pairs``:
    the pair representatives and every source point's row (its
    representative's); ``(None, None)`` for one row per point."""
    if conj_pairs is None:
        return None, None
    cp = np.asarray(conj_pairs)
    reps = _conj_pair_reps(cp, cp.size)
    if reps.size != r:
        raise ValueError(
            f"basis has {r} rows but the pairing has {reps.size} "
            "representatives; build and combine with the same conj_pairs"
        )
    return reps, np.searchsorted(reps, np.minimum(np.arange(cp.size), cp))


def basis_combine(
    basis: ArrayLike,
    w: ArrayLike,
    conj_pairs: Optional[np.ndarray] = None,
    size: Optional[int] = None,
) -> Tensor:
    """Weighted sum over the source axis: ``out[b] = sum_s w_s X_s[b]``.

    ``basis`` is a constant ``(B, R, K, K)`` array from
    :func:`incoherent_basis` (with ``conj_pairs``, rows are pair
    representatives and mates' weights fold onto them) and ``w`` an
    ``(S,)`` vector; the result is ``(B, N, N)``, N = ``size`` (default
    K) by the exact resample.  At a fixed mask, Abbe's aerial image is
    exactly this linear map of the normalized source weights.  The VJP
    is :func:`basis_contract` and vice versa, so both record a graph
    and differentiate to any order.
    """
    basis, w = as_tensor(basis), as_tensor(w)
    b, r, p = _check_basis(basis)
    reps, row = _basis_rows(conj_pairs, r)
    s = r if row is None else row.size
    if w.shape != (s,):
        raise ValueError(f"weights must be ({s},); got {w.shape}")
    k = basis.shape[-1]
    n = k if size is None else int(size)
    wr = w.data
    if reps is not None:
        wr = _fold_weights(wr, np.asarray(conj_pairs), reps)
    out = np.matmul(wr, basis.data.reshape(b, r, p)).reshape(b, k, k)
    if n != k:
        out = _resample(out, n, k)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (
            None,
            basis_contract(basis, g, conj_pairs) if w.requires_grad else None,
        )

    return _make(out, (basis, w), vjp, "basis_combine")


def basis_contract(
    basis: ArrayLike, g: ArrayLike, conj_pairs: Optional[np.ndarray] = None
) -> Tensor:
    """Adjoint of :func:`basis_combine`: ``out[s] = sum_b <X_s[b], g[b]>``.

    ``g`` is ``(B, N, N)``, N >= K, the result ``(S,)``: the
    source-weight gradient of an image-space upstream gradient.  Its VJP
    is :func:`basis_combine`.
    """
    basis, g = as_tensor(basis), as_tensor(g)
    b, r, p = _check_basis(basis)
    _, row = _basis_rows(conj_pairs, r)
    k = basis.shape[-1]
    n = g.shape[-1] if g.ndim == 3 else 0
    if g.shape != (b, n, n) or n < k:
        raise ValueError(f"g must be ({b}, N, N) with N >= {k}; got {g.shape}")
    gk = g.data
    if n != k:
        gk = _resample(gk, k, k) * ((k / n) ** 2)
    out = (basis.data.reshape(b, r, p) @ gk.reshape(b, p, 1))[:, :, 0].sum(axis=0)

    def vjp(h: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (
            None,
            basis_combine(basis, h, conj_pairs, n) if g.requires_grad else None,
        )

    return _make(
        out if row is None else out[row], (basis, g), vjp, "basis_contract"
    )


# ----------------------------------------------------------------------
# resist tail (the SMO loss below the aerial images)
# ----------------------------------------------------------------------
def corner_resist(
    aerial: np.ndarray, dose_scale: float, threshold: float, beta: float
) -> np.ndarray:
    """One corner's resist image ``sigmoid(beta * (k A - threshold))``.

    The resist model (Eq. (6)) at a dose corner, graph-free: ``k`` is
    the dose squared, an exact post-aerial scaling because the aerial
    intensity is quadratic in the mask.  The forward of
    :func:`resist_corner_losses` and the judge's corner stack
    (:meth:`repro.smo.ProcessWindowSMOObjective.images`) both call it,
    so the loss and the judged resists agree bit for bit.
    """
    x = aerial * dose_scale
    x -= threshold
    x *= beta
    return expit(x, out=x)


def resist_corner_losses(
    aerials: Sequence[ArrayLike],
    target: ArrayLike,
    condition_index: Any,
    dose_scales: Any,
    thresholds: Any,
    beta: float,
) -> Tensor:
    """Per-corner squared resist errors of a process window, one node.

    Corner c images at condition ``f = condition_index[c]`` and gives,
    per tile b (``k_c = dose_scales[c]``, the dose squared)

        out[c, b] = sum_px (sigmoid(beta * (k_c A_f[b] - thresholds[c])) - Z[b])^2

    ``(C, B)`` for ``(B, N, N)`` aerials, ``(C,)`` for one ``(N, N)``
    tile; the target ``Z`` is a constant shaped like the aerials.  The
    values are the per-tile sums of the composed ``mul``/``sub``/
    ``sigmoid``/``power`` chain bit for bit, but the forward keeps each
    corner's ``s = sigmoid(.)`` and ``e = s - Z``, so no derivative
    calls ``expit`` again:

    * the VJP is ``sum_c g_c * 2 beta k_c * e s (1 - s)`` per condition;
    * recorded (``create_graph``), that gradient is a second node over
      the same cache, with the closed-form second derivative
      ``2 beta^2 k_c^2 * s(1 - s) * [s(1 - s) + e (1 - 2s)]`` toward the
      aerial and the per-tile contraction of the first toward ``g``.

    So the loss differentiates twice: the second node's VJP is
    graph-free, and a ``create_graph`` backward through it is refused
    (:data:`GRAPH_FREE_VJPS`).
    """
    aerials = tuple(as_tensor(a) for a in aerials)
    target = as_tensor(target)
    fidx = np.asarray(condition_index).reshape(-1)
    scales = np.asarray(dose_scales, dtype=np.float64).reshape(-1)
    thr = np.asarray(thresholds, dtype=np.float64).reshape(-1)
    corners = fidx.size
    if (
        not aerials
        or fidx.dtype.kind not in "iu"
        or np.any(fidx < 0)
        or np.any(fidx >= len(aerials))
        or scales.shape != (corners,)
        or thr.shape != (corners,)
    ):
        raise ValueError(
            f"need C integer condition indices into {len(aerials)} aerials "
            f"and C dose scales and thresholds; got {fidx.shape}, "
            f"{scales.shape}, {thr.shape}"
        )
    shape = target.shape
    if target.ndim not in (2, 3) or builtins.any(a.shape != shape for a in aerials):
        raise ValueError(
            f"aerials and target must share one (N, N) or (B, N, N) shape; "
            f"got {[a.shape for a in aerials]} and {shape}"
        )
    if target.is_complex or builtins.any(a.is_complex for a in aerials):
        raise TypeError("resist_corner_losses expects real aerials and target")
    if target.requires_grad:
        raise ValueError(
            "resist_corner_losses does not propagate gradients to the "
            "target (a constant); detach it first"
        )
    beta = float(beta)
    z = target.data
    sig: List[np.ndarray] = []
    err: List[np.ndarray] = []
    out = np.empty((corners,) + shape[:-2])
    for c in range(corners):
        s = corner_resist(aerials[fidx[c]].data, scales[c], thr[c], beta)
        sig.append(s)
        err.append(s - z)
        out[c] = np.square(err[c]).sum(axis=(-2, -1))
    groups = [np.flatnonzero(fidx == f) for f in range(len(aerials))]
    derivs: Dict[Tuple[int, int], np.ndarray] = {}

    def deriv(order: int, c: int) -> np.ndarray:
        """Corner c's first or second derivative in its aerial (lazy)."""
        if (order, c) not in derivs:
            s, e = sig[c], err[c]
            p = s * (1.0 - s)
            if order == 1:
                d = e * p
                d *= 2.0 * beta * scales[c]
            else:
                d = e * (1.0 - 2.0 * s)
                d += p
                d *= p
                d *= 2.0 * beta * beta * scales[c] * scales[c]
            derivs[(order, c)] = d
        return derivs[(order, c)]

    def weighted(order: int, f: int, gd: np.ndarray) -> np.ndarray:
        """``sum_{c at f} g_c * deriv(order, c)``."""
        acc: Any = None
        for c in groups[f]:
            term = gd[c][..., None, None] * deriv(order, c)
            acc = term if acc is None else np.add(acc, term, out=acc)
        return acc

    def grad_node(g: Tensor, f: int) -> Tensor:
        """Condition f's gradient ``weighted(1, f, g)`` as a graph node."""
        a = aerials[f]

        def vjp2(h: Tensor) -> Tuple[Optional[Tensor], ...]:
            gg: Optional[np.ndarray] = None
            if g.requires_grad:
                gg = np.zeros(g.shape)
                for c in groups[f]:
                    gg[c] = np.einsum("...ij,...ij->...", h.data, deriv(1, c))
            ga = weighted(2, f, g.data) * h.data if a.requires_grad else None
            return (_wrap_grad(gg, False), _wrap_grad(ga, False))

        return _make(weighted(1, f, g.data), (g, a), vjp2, "resist_corner_grad")

    live = [a.requires_grad and groups[f].size > 0 for f, a in enumerate(aerials)]

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        if is_grad_enabled():
            return tuple(
                grad_node(g, f) if ok else None for f, ok in enumerate(live)
            )
        return tuple(
            Tensor(weighted(1, f, g.data)) if ok else None
            for f, ok in enumerate(live)
        )

    return _make(out, aerials, vjp, "resist_corner_losses")


# ----------------------------------------------------------------------
# indexing
# ----------------------------------------------------------------------
def _is_basic_index(idx: Any) -> bool:
    """Whether ``idx`` is numpy basic indexing: ints (not bools),
    slices, ``Ellipsis`` and ``None``, alone or in a tuple."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return builtins.all(
        p is None
        or p is Ellipsis
        or isinstance(p, slice)
        or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
        for p in parts
    )


def getitem(x: ArrayLike, idx: Any) -> Tensor:
    x = as_tensor(x)
    in_shape = x.shape
    complex_in = x.is_complex

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (scatter(g, idx, in_shape, complex_grad=complex_in),)

    return _make(x.data[idx].copy(), (x,), vjp, "getitem")


def scatter(
    x: ArrayLike, idx: Any, shape: Tuple[int, ...], complex_grad: bool = False
) -> Tensor:
    """Place ``x`` into a zeros array of ``shape`` at ``idx`` (adjoint of
    :func:`getitem`).

    A basic index (ints, slices, ``Ellipsis``, ``None`` and tuples of
    them) never repeats an element, so an in-place add gives
    ``np.add.at``'s result bitwise at a fraction of its cost; an
    integer-array index may repeat and accumulates through it.
    """
    x = as_tensor(x)
    dtype = np.complex128 if (complex_grad or x.is_complex) else np.float64
    out_data = np.zeros(shape, dtype)
    if _is_basic_index(idx):
        out_data[idx] += x.data
    else:
        np.add.at(out_data, idx, x.data)

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (getitem(g, idx),)

    return _make(out_data, (x,), vjp, "scatter")


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------
def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """2-D matrix product with complex-aware VJPs."""
    a, b = _binary_inputs(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")

    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        ga = matmul(g, _transpose(conj(b))) if a.requires_grad else None
        gb = matmul(_transpose(conj(a)), g) if b.requires_grad else None
        return (ga, gb)

    return _make(a.data @ b.data, (a, b), vjp, "matmul")


def _transpose(x: Tensor) -> Tensor:
    def vjp(g: Tensor) -> Tuple[Optional[Tensor], ...]:
        return (_transpose(g),)

    return _make(x.data.T.copy(), (x,), vjp, "transpose")


def dot(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Real inner product ``sum(a * b)`` used by HVP helpers.

    Operands are flattened; for complex operands this is
    ``sum(Re(a)Re(b) + Im(a)Im(b))`` — the Euclidean inner product of the
    underlying real vector space, which is the pairing that makes
    grad/HVP compositions correct under our gradient convention.
    """
    a, b = _binary_inputs(a, b)
    af = reshape(a, (a.size,))
    bf = reshape(b, (b.size,))
    if a.is_complex or b.is_complex:
        return sum(real(mul(af, conj(bf))))
    return sum(mul(af, bf))
