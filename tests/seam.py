"""Exact FFT accounting at the seam, for tests.

:class:`SeamCounter` wraps :meth:`NumpyBackend.fft2` and
:meth:`NumpyBackend.ifft2` — the patch points the benchmark tracer
wraps too — and counts every call and the 2-D transforms it performs.
It also guards ``fft2``/``ifft2`` of ``numpy.fft`` and ``scipy.fft``: a
transform issued anywhere but through the seam raises
:class:`OutOfSeamFFT`, so no transform escapes the count.  The wrappers
call the originals, so results are bitwise unchanged.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import scipy.fft

from repro.optics.backend import NumpyBackend

KEYS = ("fft2_calls", "ifft2_calls", "fft2_transforms", "ifft2_transforms")


class OutOfSeamFFT(AssertionError):
    """A 2-D transform was issued around NumpyBackend.fft2/ifft2."""


class SeamCounter:
    """Context manager counting the seam's transforms (see module doc)."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = dict.fromkeys(KEYS, 0)
        self._lock = threading.Lock()
        self._inside = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Zero all counters (call at the start of a measured region)."""
        with self._lock:
            self.counters = dict.fromkeys(KEYS, 0)

    def _count(self, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(backend: Any, x: Any, *args: Any, **kwargs: Any) -> Any:
            transforms = int(np.prod(np.shape(x)[:-2]))
            with self._lock:
                self.counters[name + "_calls"] += 1
                self.counters[name + "_transforms"] += transforms
            self._inside.depth = getattr(self._inside, "depth", 0) + 1
            try:
                return original(backend, x, *args, **kwargs)
            finally:
                self._inside.depth -= 1

        return wrapper

    def _guard(self, label: str, original: Callable[..., Any]) -> Callable[..., Any]:
        def guarded(*args: Any, **kwargs: Any) -> Any:
            if not getattr(self._inside, "depth", 0):
                raise OutOfSeamFFT(f"{label} called outside NumpyBackend.fft2/ifft2")
            return original(*args, **kwargs)

        return guarded

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "SeamCounter":
        for name in ("fft2", "ifft2"):
            self._patch(NumpyBackend, name, self._count(name, getattr(NumpyBackend, name)))
            for module in (np.fft, scipy.fft):
                label = f"{module.__name__}.{name}"
                self._patch(module, name, self._guard(label, getattr(module, name)))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
