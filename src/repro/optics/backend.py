"""Pluggable array-backend seam for the imaging hot paths.

:class:`ArrayBackend` is the single surface through which the fused
incoherent-imaging primitive (:func:`repro.autodiff.functional.
incoherent_image_stack`, behind every engine imaging method with or
without a graph) and its streamed adjoint, ``source_intensity_basis``
and the optics cache's grid builders allocate arrays, run FFTs and move
data between the host and a compute device.  The kernels themselves are
written with plain Python operators (slicing, broadcasting, ``@``,
``+=``) that numpy arrays and torch tensors implement identically, so
one backend object — supplying allocation, elementwise ``|x|^2``,
reductions, FFT dispatch and host/device transfer — is all that changes
between a CPU run and a GPU run.

Backends
--------
``numpy`` (default)
    Delegates every transform to :mod:`repro.optics.fftlib`, so the
    scipy/numpy FFT choice and worker counts keep applying unchanged.
    :meth:`NumpyBackend.fft2`/:meth:`NumpyBackend.ifft2` are the one
    place a transform is counted: with metrics on they add the 2-D
    transforms and points of every call to the ``fft.transforms`` and
    ``fft.points`` counters of :mod:`repro.obs`.
    ``from_host``/``to_host`` are identity views: routing the numpy
    path through the seam executes the exact same numpy calls in the
    same order as before the seam existed (bitwise-identical results).

``torch``
    Optional; CPU now, CUDA when :func:`torch.cuda.is_available`.
    Activation caps torch's intra-op threads at the fftlib worker
    budget so ``use_backend("torch")`` composes with
    ``fftlib.use(budget=...)`` instead of oversubscribing cores.
    Frozen cached constants (read-only arrays such as pupil stacks)
    are transferred once and memoized per backend instance.

``strict``
    A test double wrapping numpy: every array produced by the seam is
    tagged with an ``ndarray`` subclass, FFT entry points **raise**
    :class:`BackendSeamError` when handed an untagged (raw host) array,
    and counters record allocations, transfer calls and the exact
    number of 2-D transforms executed.  The seam test suite uses it to
    prove the BiSMO hot path performs zero out-of-seam array ops and
    that conjugate-pair FFT halving has not regressed.

Selection is per-run via ``REPRO_BACKEND=numpy|torch|strict`` (read
once at import; this module is a registered raw env reader) or scoped
with the :func:`use_backend` context manager.  ``HOST`` is the numpy
backend singleton, importable by hot-path modules for declared
host-side allocations (graph leaves, gradient accumulators, output
buffers) so the R9 backend-seam lint can tell routed allocations from
raw ``np.zeros``/``np.empty`` calls.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..obs import counter as obs_counter
from ..obs import metrics_enabled as obs_metrics_enabled
from . import fftlib

__all__ = [
    "Array",
    "ArrayBackend",
    "NumpyBackend",
    "TorchBackend",
    "StrictBackend",
    "BackendSeamError",
    "HOST",
    "register_backend",
    "registered_backends",
    "available_backends",
    "get_backend",
    "active_backend",
    "set_backend",
    "use_backend",
    "env_default_backend",
    "describe",
    "counters_snapshot",
]

#: Backend-native array handle: ``np.ndarray`` for numpy/strict,
#: ``torch.Tensor`` for torch.
Array = Any


class BackendSeamError(RuntimeError):
    """A raw host array reached a seam FFT without entering the seam."""


# ----------------------------------------------------------------------
# the backend protocol (base class with shared host-policy defaults)
# ----------------------------------------------------------------------
class ArrayBackend:
    """Allocation, elementwise ops, reductions, FFTs and transfer.

    Subclasses implement the device-side methods; the base class owns
    the *host* policy every backend shares: graph storage coercion
    (``float64``/``complex128`` numpy arrays).
    """

    name: str = "base"

    # -- availability / activation -------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can be constructed in this environment."""
        return True

    def activate(self) -> None:
        """Hook run when the backend becomes active (thread caps etc.)."""
        return None

    def synchronize(self) -> None:
        """Block until outstanding device work completes (no-op on CPU)."""
        return None

    # -- host policy (shared) ------------------------------------------
    def coerce_host(self, data: Any) -> np.ndarray:
        """Coerce arbitrary array-likes to a float64/complex128 ndarray.

        This is the :class:`repro.autodiff.tensor.Tensor` storage
        policy: the autodiff graph lives on the host in double
        precision regardless of the active compute backend.
        """
        arr = np.asarray(data)
        if np.iscomplexobj(arr):
            if arr.dtype != np.complex128:
                arr = arr.astype(np.complex128)
        elif arr.dtype != np.float64:
            arr = arr.astype(np.float64)
        return arr

    # -- dtype handles (backend-native) --------------------------------
    @property
    def float64(self) -> Any:
        raise NotImplementedError

    @property
    def complex128(self) -> Any:
        raise NotImplementedError

    # -- host/device transfer ------------------------------------------
    def from_host(self, x: Any) -> Array:
        """Move a host array into the backend's native representation."""
        raise NotImplementedError

    def to_host(self, x: Array) -> np.ndarray:
        """Move a backend array back to a host ndarray."""
        raise NotImplementedError

    # -- allocation ----------------------------------------------------
    def zeros(self, shape: Any, dtype: Any) -> Array:
        raise NotImplementedError

    def empty(self, shape: Any, dtype: Any) -> Array:
        raise NotImplementedError

    def asarray(self, x: Any, dtype: Any = None) -> Array:
        raise NotImplementedError

    # -- elementwise / reductions --------------------------------------
    def abs2(self, x: Array) -> Array:
        """Squared magnitude ``|x|^2`` as a real array."""
        raise NotImplementedError

    def conj(self, x: Array) -> Array:
        raise NotImplementedError

    def astype(self, x: Array, dtype: Any) -> Array:
        raise NotImplementedError

    def iscomplex(self, x: Array) -> bool:
        raise NotImplementedError

    def sum(self, x: Array, axis: Optional[int] = None) -> Array:
        raise NotImplementedError

    def einsum(self, spec: str, *operands: Array) -> Array:
        raise NotImplementedError

    # -- FFTs (always over the last two axes) --------------------------
    def fft2(self, x: Array, overwrite_x: bool = False) -> Array:
        raise NotImplementedError

    def ifft2(self, x: Array, overwrite_x: bool = False) -> Array:
        raise NotImplementedError

    def fftfreq(self, n: int, d: float = 1.0) -> Array:
        raise NotImplementedError

    def freq_reverse(self, x: Array) -> Array:
        """Map samples of ``f`` to samples of ``-f`` on the FFT grid."""
        raise NotImplementedError

    # -- introspection -------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Environment fingerprint for bench records and debugging."""
        return {"backend": self.name}


# ----------------------------------------------------------------------
# numpy (default) — delegates transforms to fftlib, transfer is identity
# ----------------------------------------------------------------------
def _count_transforms(x: Any) -> None:
    """Add one call's 2-D transforms and points to the obs counters
    (a single branch while metrics are off)."""
    if obs_metrics_enabled():
        points = int(np.size(x))
        plane = int(x.shape[-1]) * int(x.shape[-2])
        obs_counter("fft.transforms").inc(points // plane if plane else 0)
        obs_counter("fft.points").inc(points)


class NumpyBackend(ArrayBackend):
    """Default host backend; the pre-seam numpy semantics, verbatim."""

    name = "numpy"

    @property
    def float64(self) -> Any:
        return np.float64

    @property
    def complex128(self) -> Any:
        return np.complex128

    def from_host(self, x: Any) -> np.ndarray:
        return np.asarray(x)

    def to_host(self, x: Any) -> np.ndarray:
        return np.asarray(x)

    def zeros(self, shape: Any, dtype: Any) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def empty(self, shape: Any, dtype: Any) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def asarray(self, x: Any, dtype: Any = None) -> np.ndarray:
        return np.asarray(x, dtype=dtype)

    def abs2(self, x: Any) -> np.ndarray:
        if np.iscomplexobj(x):
            # square(re) += square(im): bitwise-identical to both the
            # historical hot-path idioms (split squares and
            # ``(f * conj(f)).real`` round the same three operations).
            out = np.square(x.real)
            out += np.square(x.imag)
            return out
        return np.square(x)

    def conj(self, x: Any) -> np.ndarray:
        return np.conj(x)

    def astype(self, x: Any, dtype: Any) -> np.ndarray:
        return np.asarray(x).astype(dtype, copy=False)

    def iscomplex(self, x: Any) -> bool:
        return bool(np.iscomplexobj(x))

    def sum(self, x: Any, axis: Optional[int] = None) -> Any:
        return np.sum(x, axis=axis)

    def einsum(self, spec: str, *operands: Any) -> np.ndarray:
        return np.einsum(spec, *operands)

    def fft2(self, x: Any, overwrite_x: bool = False) -> np.ndarray:
        _count_transforms(x)
        return fftlib.fft2(x, overwrite_x=overwrite_x)

    def ifft2(self, x: Any, overwrite_x: bool = False) -> np.ndarray:
        _count_transforms(x)
        return fftlib.ifft2(x, overwrite_x=overwrite_x)

    def fftfreq(self, n: int, d: float = 1.0) -> np.ndarray:
        return fftlib.fftfreq(n, d=d)

    def freq_reverse(self, x: Any) -> np.ndarray:
        return fftlib.freq_reverse(x)

    def describe(self) -> Dict[str, Any]:
        info = {"backend": self.name, "device": "cpu"}
        info.update({"fft_" + k: v for k, v in fftlib.describe().items()})
        return info


# ----------------------------------------------------------------------
# torch — CPU now, CUDA when present; availability-gated import
# ----------------------------------------------------------------------
class TorchBackend(ArrayBackend):
    """Torch tensors with :mod:`torch.fft` transforms.

    Read-only host arrays (the optics cache freezes every shared
    constant) are copied to the device once and memoized per instance;
    writable arrays transfer fresh each call (they are transient).
    """

    name = "torch"

    def __init__(self) -> None:
        import torch

        self._torch = torch
        self._device = torch.device(
            "cuda" if torch.cuda.is_available() else "cpu"
        )
        self._lock = threading.Lock()
        self._transfer_memo: Dict[int, Tuple[np.ndarray, Any]] = {}

    _TRANSFER_MEMO_MAX = 32

    @classmethod
    def is_available(cls) -> bool:
        try:
            import torch  # noqa: F401
        except Exception:
            return False
        return True

    def activate(self) -> None:
        # Compose with the unified worker budget: torch's intra-op
        # threads get the same global cap the FFT dispatch honors.
        budget = int(fftlib.effective_budget())
        if budget >= 1:
            self._torch.set_num_threads(budget)

    def synchronize(self) -> None:
        if self._device.type == "cuda":
            self._torch.cuda.synchronize()

    @property
    def float64(self) -> Any:
        return self._torch.float64

    @property
    def complex128(self) -> Any:
        return self._torch.complex128

    def from_host(self, x: Any) -> Array:
        torch = self._torch
        if isinstance(x, torch.Tensor):
            return x
        arr = np.asarray(x)
        if not arr.flags.writeable:
            key = id(arr)
            with self._lock:
                hit = self._transfer_memo.get(key)
            if hit is not None and hit[0] is arr:
                return hit[1]
            dev = torch.as_tensor(arr.copy()).to(self._device)
            with self._lock:
                if len(self._transfer_memo) >= self._TRANSFER_MEMO_MAX:
                    self._transfer_memo.pop(next(iter(self._transfer_memo)))
                self._transfer_memo[key] = (arr, dev)
            return dev
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        return torch.as_tensor(arr).to(self._device)

    def to_host(self, x: Array) -> np.ndarray:
        if isinstance(x, self._torch.Tensor):
            return x.detach().resolve_conj().cpu().numpy()
        return np.asarray(x)

    def zeros(self, shape: Any, dtype: Any) -> Array:
        return self._torch.zeros(tuple(shape), dtype=dtype, device=self._device)

    def empty(self, shape: Any, dtype: Any) -> Array:
        return self._torch.empty(tuple(shape), dtype=dtype, device=self._device)

    def asarray(self, x: Any, dtype: Any = None) -> Array:
        return self._torch.as_tensor(x, dtype=dtype, device=self._device)

    def abs2(self, x: Array) -> Array:
        torch = self._torch
        if torch.is_complex(x):
            out = torch.square(torch.real(x))
            out += torch.square(torch.imag(x))
            return out
        return torch.square(x)

    def conj(self, x: Array) -> Array:
        # resolve_conj materializes the lazy conj bit so downstream
        # einsum/matmul kernels never see a conj view.
        return self._torch.conj(x).resolve_conj()

    def astype(self, x: Array, dtype: Any) -> Array:
        return x.to(dtype)

    def iscomplex(self, x: Array) -> bool:
        return bool(self._torch.is_complex(x))

    def sum(self, x: Array, axis: Optional[int] = None) -> Array:
        if axis is None:
            return self._torch.sum(x)
        return self._torch.sum(x, dim=axis)

    def einsum(self, spec: str, *operands: Array) -> Array:
        return self._torch.einsum(spec, *operands)

    def fft2(self, x: Array, overwrite_x: bool = False) -> Array:
        return self._torch.fft.fft2(x)

    def ifft2(self, x: Array, overwrite_x: bool = False) -> Array:
        return self._torch.fft.ifft2(x)

    def fftfreq(self, n: int, d: float = 1.0) -> Array:
        return self._torch.fft.fftfreq(
            n, d=d, dtype=self._torch.float64, device=self._device
        )

    def freq_reverse(self, x: Array) -> Array:
        torch = self._torch
        return torch.roll(
            torch.flip(x, dims=(-2, -1)), shifts=(1, 1), dims=(-2, -1)
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "backend": self.name,
            "device": self._device.type,
            "torch_version": str(self._torch.__version__),
            "torch_threads": int(self._torch.get_num_threads()),
        }


# ----------------------------------------------------------------------
# strict — instrumented numpy wrapper proving seam discipline in tests
# ----------------------------------------------------------------------
class _StrictArray(np.ndarray):
    """Tag subclass marking arrays that entered through the seam.

    Numpy propagates the subclass through views, slicing, ufuncs and
    arithmetic, so any array descending from a seam transfer or seam
    allocation stays tagged all the way to the next FFT — and any raw
    host array smuggled into the hot path arrives untagged.
    """


class StrictBackend(NumpyBackend):
    """Numpy semantics plus seam enforcement and op accounting.

    ``fft2``/``ifft2`` raise :class:`BackendSeamError` unless the
    operand is tagged, and ``counters`` tracks transfer/allocation
    calls, FFT calls, and the exact number of 2-D transforms each call
    performed (``fft2_transforms``/``ifft2_transforms``) — the number
    the conjugate-pair streaming optimisation halves, so a pairing
    regression fails an exact-count assertion instead of only a bench.
    Results are bitwise identical to the numpy backend (tagging is a
    zero-copy ndarray view).
    """

    name = "strict"

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Zero all counters (call at the start of a measured region)."""
        self.counters = {
            "from_host": 0,
            "to_host": 0,
            "alloc": 0,
            "fft2_calls": 0,
            "ifft2_calls": 0,
            "fft2_transforms": 0,
            "ifft2_transforms": 0,
        }

    @staticmethod
    def _tag(x: Any) -> np.ndarray:
        return np.asarray(x).view(_StrictArray)

    @staticmethod
    def _transforms(x: np.ndarray) -> int:
        if x.ndim <= 2:
            return 1
        return int(np.prod(x.shape[:-2]))

    def _require_tagged(self, x: Any, op: str) -> None:
        if not isinstance(x, _StrictArray):
            raise BackendSeamError(
                f"StrictBackend.{op} received a raw host array that did "
                "not enter through the seam (from_host/zeros/empty)"
            )

    def from_host(self, x: Any) -> np.ndarray:
        self.counters["from_host"] += 1
        return self._tag(x)

    def to_host(self, x: Any) -> np.ndarray:
        self.counters["to_host"] += 1
        return np.asarray(x)

    def zeros(self, shape: Any, dtype: Any) -> np.ndarray:
        self.counters["alloc"] += 1
        return self._tag(np.zeros(shape, dtype=dtype))

    def empty(self, shape: Any, dtype: Any) -> np.ndarray:
        self.counters["alloc"] += 1
        return self._tag(np.empty(shape, dtype=dtype))

    def asarray(self, x: Any, dtype: Any = None) -> np.ndarray:
        return self._tag(np.asarray(x, dtype=dtype))

    def fft2(self, x: Any, overwrite_x: bool = False) -> np.ndarray:
        self._require_tagged(x, "fft2")
        self.counters["fft2_calls"] += 1
        self.counters["fft2_transforms"] += self._transforms(x)
        return self._tag(super().fft2(np.asarray(x), overwrite_x=overwrite_x))

    def ifft2(self, x: Any, overwrite_x: bool = False) -> np.ndarray:
        self._require_tagged(x, "ifft2")
        self.counters["ifft2_calls"] += 1
        self.counters["ifft2_transforms"] += self._transforms(x)
        return self._tag(super().ifft2(np.asarray(x), overwrite_x=overwrite_x))

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["backend"] = self.name
        return info


# ----------------------------------------------------------------------
# registry and per-run selection
# ----------------------------------------------------------------------
_LOCK = threading.Lock()
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_PROBES: Dict[str, Callable[[], bool]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
_STATE: Dict[str, str] = {"backend": "numpy"}


def register_backend(
    name: str,
    factory: Callable[[], ArrayBackend],
    available: Optional[Callable[[], bool]] = None,
) -> None:
    """Register a backend ``factory`` under ``name``.

    ``available`` is an optional cheap probe (e.g. an import check) run
    by :func:`available_backends`; construction errors from ``factory``
    surface at first :func:`get_backend` call either way.
    """
    with _LOCK:
        _FACTORIES[name] = factory
        _PROBES[name] = available if available is not None else (lambda: True)
        _INSTANCES.pop(name, None)


def registered_backends() -> Tuple[str, ...]:
    """All registered backend names (available or not)."""
    with _LOCK:
        return tuple(sorted(_FACTORIES))


def available_backends() -> Tuple[str, ...]:
    """Registered backend names whose availability probe passes."""
    with _LOCK:
        items = list(_PROBES.items())
    return tuple(sorted(name for name, probe in items if probe()))


def get_backend(name: str) -> ArrayBackend:
    """Return the (memoized) backend instance registered under ``name``."""
    with _LOCK:
        inst = _INSTANCES.get(name)
        if inst is not None:
            return inst
        factory = _FACTORIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown array backend {name!r}; registered: "
            f"{', '.join(registered_backends())}"
        )
    try:
        built = factory()
    except ImportError as exc:
        raise RuntimeError(
            f"array backend {name!r} is registered but not available in "
            f"this environment ({exc}); available: "
            f"{', '.join(available_backends())}"
        ) from exc
    with _LOCK:
        inst = _INSTANCES.setdefault(name, built)
    return inst


def active_backend() -> ArrayBackend:
    """The backend instance the hot paths currently route through."""
    return get_backend(_STATE["backend"])


def set_backend(name: str) -> None:
    """Select the active backend by name (raises on unknown names)."""
    inst = get_backend(name)
    _STATE["backend"] = name
    inst.activate()


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[ArrayBackend]:
    """Scoped backend selection, composing with ``fftlib.use(...)``.

    Nest inside ``fftlib.use(budget=...)`` to run a backend under a
    specific worker budget — activation re-reads the budget, so the
    torch thread cap follows it.
    """
    saved = _STATE["backend"]
    set_backend(name)
    try:
        yield active_backend()
    finally:
        set_backend(saved)


def env_default_backend() -> str:
    """Resolve ``REPRO_BACKEND`` (default ``numpy``), validating the name."""
    raw = os.environ.get("REPRO_BACKEND", "numpy").strip().lower() or "numpy"
    if raw not in _FACTORIES:
        raise ValueError(
            f"REPRO_BACKEND={raw!r} is not a registered backend; choose "
            f"from {', '.join(registered_backends())}"
        )
    return raw


def describe() -> Dict[str, Any]:
    """Environment fingerprint of the active backend."""
    return active_backend().describe()


def counters_snapshot() -> Optional[Dict[str, int]]:
    """Copy of the active backend's transfer/FFT counters, if it keeps any.

    Only the instrumented ``strict`` backend counts today; the telemetry
    snapshot in :mod:`repro.obs.metrics` reads through this seam so any
    future counting backend is picked up without obs changes.
    """
    counters = getattr(active_backend(), "counters", None)
    if isinstance(counters, dict):
        return dict(counters)
    return None


#: Host-side numpy backend singleton.  Hot-path modules use it for
#: declared host allocations (graph leaves, gradient accumulators,
#: host output buffers) — the allocations the R9 backend-seam rule
#: would otherwise flag as raw ``np.zeros``/``np.empty``.
HOST = NumpyBackend()

register_backend("numpy", lambda: HOST)
register_backend("strict", StrictBackend)
register_backend("torch", TorchBackend, TorchBackend.is_available)
_STATE["backend"] = env_default_backend()
