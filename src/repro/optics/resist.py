"""Resist-side helpers: hard thresholds and threshold calibration.

The resist model itself (Eq. (6), ``Z = sigmoid(beta * (k I - I_tr))``
at a dose corner with ``k`` the dose squared) lives with the loss tail
that differentiates it: :func:`repro.autodiff.functional.corner_resist`,
which both :func:`repro.autodiff.functional.resist_corner_losses` and
the judge's corner stack
(:meth:`repro.smo.ProcessWindowSMOObjective.images`) call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["binarize", "calibrate_threshold"]


def binarize(image: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Hard-threshold a (resist or mask) image to {0, 1}."""
    return (np.asarray(image) >= threshold).astype(np.float64)


def calibrate_threshold(
    aerial: np.ndarray,
    target: np.ndarray,
    lo: float = 0.05,
    hi: float = 0.8,
    iters: int = 40,
) -> float:
    """Bisection for the intensity threshold whose printed area matches
    the target area.

    A convenience for non-paper optical setups; the paper's experiments
    use a fixed threshold, but sanity tests use this to confirm the
    default is reasonable.
    """
    target_area = float((np.asarray(target) >= 0.5).sum())
    if target_area == 0:
        raise ValueError("target pattern is empty")
    a, b = lo, hi
    for _ in range(iters):
        mid = (a + b) / 2.0
        area = float((aerial >= mid).sum())
        if area > target_area:
            a = mid
        else:
            b = mid
    return (a + b) / 2.0
