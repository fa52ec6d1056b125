"""The one FFT seam: where every 2-D transform is issued and counted.

:meth:`NumpyBackend.fft2` and :meth:`NumpyBackend.ifft2` transform the
last two axes with scipy's pocketfft (numpy "backward" normalization),
handing it the :func:`repro.optics.fftlib.effective_workers` thread
count.  Pocketfft threads across the batch of independent transforms
with no cross-thread reduction, so the worker count never changes a
bit of the result.  With metrics on, each call adds its 2-D transforms
and points to the ``fft.transforms`` and ``fft.points`` counters of
:mod:`repro.obs`.  The hot paths call them through ``HOST``; everything
else they do is plain numpy.  No other module may touch ``numpy.fft``
or ``scipy.fft`` (lint rule R1), so these two methods see every
transform — the benchmark tracer wraps them for its ``fft.*`` layer.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np
import scipy.fft

from ..obs import counter as obs_counter
from ..obs import metrics_enabled as obs_metrics_enabled
from . import fftlib

__all__ = ["NumpyBackend", "HOST", "describe"]


def _count_transforms(x: Any) -> None:
    """Add one call's 2-D transforms and points to the obs counters
    (a single branch while metrics are off)."""
    if obs_metrics_enabled():
        points = int(np.size(x))
        plane = int(x.shape[-1]) * int(x.shape[-2])
        obs_counter("fft.transforms").inc(points // plane if plane else 0)
        obs_counter("fft.points").inc(points)


class NumpyBackend:
    """2-D transforms over the last two axes of numpy arrays.

    ``overwrite_x`` lets pocketfft reuse ``x`` as scratch (the caller
    must own ``x``).
    """

    def fft2(self, x: Any, overwrite_x: bool = False) -> np.ndarray:
        _count_transforms(x)
        return scipy.fft.fft2(
            x, workers=fftlib.effective_workers(), overwrite_x=overwrite_x
        )

    def ifft2(self, x: Any, overwrite_x: bool = False) -> np.ndarray:
        _count_transforms(x)
        return scipy.fft.ifft2(
            x, workers=fftlib.effective_workers(), overwrite_x=overwrite_x
        )

    def describe(self) -> Dict[str, Any]:
        """Environment fingerprint for bench records and debugging."""
        policy = {"fft_" + k: v for k, v in fftlib.describe().items()}
        return {"backend": "numpy", "device": "cpu", "fft_backend": "scipy", **policy}


#: The seam instance every hot path calls.
HOST = NumpyBackend()


def describe() -> Dict[str, Any]:
    """Environment fingerprint of the FFT seam."""
    return HOST.describe()
