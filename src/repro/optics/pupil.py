"""Projection pupil (optical transfer function) — Equation (5).

The projector is modelled as an ideal circular low-pass filter with
cutoff ``NA / lambda``.  For Abbe imaging, each source point sees the
pupil shifted by its own spatial frequency; :func:`shifted_pupil_stack`
builds all shifted pupils at once so the imaging engine can batch the
per-source FFTs (the paper's parallel acceleration, Section 3.1).

Aberrations multiply the shifted stack by a unit-modulus phase factor
on the mask frequency grid: :func:`defocus_phase` is the classic
Fresnel focus term, and :func:`aberrated_pupil_stack` generalizes it to
any :class:`repro.optics.zernike.PupilAberration` (Zernike terms Z4-Z11
or a raw phase map) — the pupil-phase condition axis of a process
window.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..utils.memory import require_memory
from .config import OpticalConfig
from .source import SourceGrid
from .zernike import PupilAberration, defocus_exponent

__all__ = [
    "pupil",
    "shifted_pupil_stack",
    "defocus_phase",
    "defocused_pupil_stack",
    "aberrated_pupil_stack",
    "conj_pair_indices",
]


def pupil(config: OpticalConfig) -> np.ndarray:
    """Unshifted pupil H(f, g) on the mask frequency grid (fftfreq order)."""
    fx, fy = config.freq_grid()
    return (np.hypot(fx, fy) <= config.cutoff_freq + 1e-15).astype(np.float64)


def shifted_pupil_stack(
    config: OpticalConfig, grid: SourceGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Pupils shifted by every valid source point's frequency offset.

    Returns
    -------
    stack:
        ``(S, N_m, N_m)`` float array; ``stack[s] = H(f + f_s, g + g_s)``
        for the s-th valid source point.
    valid_index:
        Tuple of index arrays selecting the valid source points in the
        ``(N_j, N_j)`` source image (row-major order matching ``stack``).
    """
    fx, fy = config.freq_grid()
    off_x, off_y = grid.freq_offsets(config)
    shape = (off_x.size,) + fx.shape
    require_memory(
        8 * off_x.size * fx.size, f"{shape} float64 shifted pupil stack"
    )
    fc = config.cutoff_freq
    # (S, N, N) via broadcasting; bool -> float64 for autodiff multiplies.
    shifted_sq = (fx[None, :, :] + off_x[:, None, None]) ** 2 + (
        fy[None, :, :] + off_y[:, None, None]
    ) ** 2
    stack = (shifted_sq <= (fc + 1e-15) ** 2).astype(np.float64)
    valid_index = np.nonzero(grid.valid)
    return stack, valid_index


def defocus_phase(config: OpticalConfig, defocus_nm: float) -> np.ndarray:
    """Paraxial defocus phase factor exp(-i pi lambda z (f^2 + g^2)).

    Multiplying the pupil by this complex factor models a wafer-plane
    focus offset of ``defocus_nm`` (Fresnel approximation).  This is the
    focus axis of the process-window subsystem: every focus value of a
    :class:`repro.optics.config.ProcessWindow` images through one such
    defocused pupil stack (cached per focus in
    :mod:`repro.optics.cache` and streamed through the fused
    ``incoherent_image_stack`` primitive); the paper's own PVB (Eq. (8))
    uses the dose corners only, which share the zero-defocus pass.

    Note the phase is *even* in (f, g): frequency reversal leaves it
    unchanged, so the ``+/-sigma`` structural pairing of the shifted
    pupils survives defocus (see :func:`conj_pair_indices`).  The
    exponent lives in :func:`repro.optics.zernike.defocus_exponent` —
    the same array a ``{"Z4": z}`` aberration spec exponentiates, which
    is what makes the ``defocus_nm`` sugar bitwise-exact.
    """
    return np.exp(1j * defocus_exponent(config, defocus_nm))


def defocused_pupil_stack(
    config: OpticalConfig, grid: SourceGrid, defocus_nm: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Shifted pupils with a defocus aberration applied (complex stack)."""
    return aberrated_pupil_stack(config, grid, PupilAberration.defocus(defocus_nm))


def aberrated_pupil_stack(
    config: OpticalConfig, grid: SourceGrid, aberration
) -> Tuple[np.ndarray, np.ndarray]:
    """Shifted pupils under an arbitrary pupil-phase aberration.

    ``aberration`` is anything :meth:`PupilAberration.coerce` accepts (a
    defocus float, a ``{term: nm}`` mapping, a radian phase map or a
    spec).  The null spec returns the plain *real* stack — keeping the
    verified ``+/-sigma`` conjugate-field streaming available — while
    any non-null spec multiplies in the complex unit-modulus phase
    factor (one elementwise multiply; the stack geometry never
    changes).
    """
    stack, valid_index = shifted_pupil_stack(config, grid)
    ab = PupilAberration.coerce(aberration)
    if ab.is_null:
        return stack, valid_index
    return stack * ab.phase(config)[None, :, :], valid_index


def conj_pair_indices(
    stack: np.ndarray, valid_index, grid: SourceGrid
) -> Optional[np.ndarray]:
    """Frequency-reversal pairing of a shifted pupil stack, if usable.

    The source grid is point-symmetric, so the pupil shifted by
    ``sigma`` is the frequency reversal of the one shifted by
    ``-sigma`` — the structure the fused primitives exploit to evaluate
    only one coherent field per ``+/-sigma`` pair on real masks.  The
    candidate pairing (from the source coordinates) is verified against
    the actual pupil samples, so asymmetric custom stacks simply opt
    out (``None``).  Complex (defocused) stacks also return ``None``:
    the *structural* pairing survives defocus (the defocus phase is
    even in frequency), but the conjugate *field* identity
    ``F_{-sigma} = conj(F_{+sigma})`` needs real kernels, so streaming
    cannot halve the FFT work there.
    """
    from . import fftlib

    if np.iscomplexobj(stack):
        return None
    rows, cols = valid_index
    sx = grid.sigma_x[rows, cols]
    sy = grid.sigma_y[rows, cols]
    index = {
        (round(float(x), 9), round(float(y), 9)): i
        for i, (x, y) in enumerate(zip(sx, sy))
    }
    pairs = np.empty(sx.size, dtype=np.intp)
    for i, (x, y) in enumerate(zip(sx, sy)):
        j = index.get((round(float(-x), 9), round(float(-y), 9)))
        if j is None:
            return None
        pairs[i] = j
    # Pupils are exact 0/1 indicators, so the reversal identity can
    # be checked bitwise (one-time cost per build).
    reps = np.nonzero(pairs > np.arange(pairs.size))[0]
    if not np.array_equal(stack[pairs[reps]], fftlib.freq_reverse(stack[reps])):
        return None
    return pairs
