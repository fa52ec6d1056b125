"""Projection pupil (optical transfer function) — Equation (5).

The projector is modelled as an ideal circular low-pass filter with
cutoff ``NA / lambda``.  For Abbe imaging each source point sees the
pupil shifted by its own spatial frequency: a disk of radius ``tile *
NA / lambda`` bins (about 14 at every preset but ``tiny``), so every
coherent field is band-limited to one disk and its intensity to twice
it.  :func:`crop_geometry` re-centres each shifted pupil on an integer
bin and derives one crop size K from the configuration (14 at
``tiny``, 56 at ``default`` and ``paper``, the whole grid where a crop
would not halve it, as at ``small``); :func:`pupil_crops` builds the
``(S, K, K)`` crops, bitwise the full-grid pupil samples, that the
fused primitive images through on the K grid (the paper's Abbe
acceleration, Section 3.1, on a smaller grid).

Aberrations multiply the crops by a unit-modulus phase gathered from
the full-grid phase map: :func:`defocus_phase` is the classic Fresnel
focus term, and any :class:`repro.optics.zernike.PupilAberration`
(Zernike terms Z4-Z11 or a raw phase map) generalizes it — the
pupil-phase condition axis of a process window.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

# A module import, not a name import: repro.optics loads while
# autodiff.functional is still executing its own imports.
from ..autodiff import functional as F
from ..utils.memory import require_memory
from .config import OpticalConfig
from .source import SourceGrid
from .zernike import PupilAberration, defocus_exponent

__all__ = [
    "pupil",
    "crop_geometry",
    "pupil_crops",
    "defocus_phase",
    "conj_pair_indices",
]


def pupil(config: OpticalConfig) -> np.ndarray:
    """Unshifted pupil H(f, g) on the mask frequency grid (fftfreq order)."""
    fx, fy = config.freq_grid()
    return (np.hypot(fx, fy) <= config.cutoff_freq + 1e-15).astype(np.float64)


def _shifted_pupils(
    config: OpticalConfig, grid: SourceGrid, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``(S, R, C)`` samples ``H(f + f_s)`` of every valid source point's
    shifted pupil at full-grid bins ``rows[s] x cols[s]`` (wrapped mod N):
    the same frequency values, hence bitwise the same samples, as the
    whole-grid pupil."""
    f, _ = config.freq_axes()
    n = config.mask_size
    off_x, off_y = grid.freq_offsets(config)
    fx = f[cols % n][:, None, :] + off_x[:, None, None]
    fy = f[rows % n][:, :, None] + off_y[:, None, None]
    return fx**2 + fy**2 <= (config.cutoff_freq + 1e-15) ** 2


def _fft_friendly_even(m: int) -> int:
    """Smallest even size >= m with prime factors 2, 3, 5 and 7 only."""
    k = max(2, m + m % 2)
    while True:
        rest = k
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 2


def crop_geometry(
    config: OpticalConfig, grid: SourceGrid
) -> Tuple[int, np.ndarray]:
    """``(K, centres)``: the crop size and every valid source point's
    ``(row, col)`` integer centre bin.

    Each shifted pupil's support is found on a window around its
    nearest bin; its centre is the rounded midpoint of the support's
    bounding box (odd-symmetric, so ``+/-sigma`` points get negated
    centres).  The widest extent ``span`` bounds a field's spectrum and
    ``2 * span`` its intensity's, so K is the smallest FFT-friendly even
    size >= ``2 * span + 1``.  Where that K would not at most halve N
    (or N is odd, or a window would leave the grid) K is N with every
    centre 0: the crop is the whole grid.
    """
    n = config.mask_size
    off_x, off_y = grid.freq_offsets(config)
    whole = (n, np.zeros((off_x.size, 2), dtype=np.intp))
    radius = config.cutoff_freq * config.tile_nm  # pupil radius in bins
    reach = int(np.ceil(radius)) + 2
    # Any disk support spans at least 2 * radius - 3 bins: skip the
    # search where even that crop would not halve the grid.
    smallest = _fft_friendly_even(int(np.ceil(4.0 * radius - 5.0)))
    if n % 2 or 2 * reach + 1 > n or 2 * smallest > n:
        return whole
    local = np.arange(-reach, reach + 1)
    near = np.rint(-np.stack([off_y, off_x], axis=1) * config.tile_nm)
    near = near.astype(np.intp)
    support = _shifted_pupils(
        config, grid, near[:, :1] + local, near[:, 1:] + local
    )
    hit = np.stack([support.any(axis=2), support.any(axis=1)], axis=1)
    lo = np.argmax(hit, axis=2)  # (S, 2) first hit per axis
    hi = hit.shape[2] - 1 - np.argmax(hit[:, :, ::-1], axis=2)
    empty = ~hit.any(axis=2)  # an empty pupil: its field is zero
    centres = near + np.where(empty, 0, np.rint((local[lo] + local[hi]) / 2.0))
    span = int(np.max(np.where(empty, 0, hi - lo)))
    k = _fft_friendly_even(2 * span + 1)
    starts = n // 2 + centres - k // 2
    if 2 * k > n or np.any(starts < 0) or np.any(starts > n - k):
        return whole
    return k, centres.astype(np.intp)


def pupil_crops(
    config: OpticalConfig,
    grid: SourceGrid,
    aberration=None,
    geometry: Optional[Tuple[int, np.ndarray]] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Shifted pupils of every valid source point, cropped to K x K.

    Returns ``(crops, valid_index)``: ``crops[s]`` holds ``H(f + f_s)``
    on the K x K window around ``centres[s]`` of ``geometry`` (default
    :func:`crop_geometry`), bitwise the full-grid samples there; at
    K == N it is the whole fftfreq-layout pupil.  ``valid_index``
    selects the valid points in the ``(N_j, N_j)`` source image
    (row-major, matching ``crops``).  ``aberration`` is anything
    :meth:`PupilAberration.coerce` accepts: the null spec keeps the
    *real* crops (and with them the verified ``+/-sigma`` conjugate
    streaming); any other multiplies in its unit-modulus phase factor,
    gathered from the full-grid phase map.
    """
    k, centres = crop_geometry(config, grid) if geometry is None else geometry
    n = config.mask_size
    s = centres.shape[0]
    require_memory(8 * s * k * k, f"{(s, k, k)} float64 pupil crops")
    offsets = F.kernel_offsets(k, n)
    rows = (centres[:, 0:1] + offsets) % n
    cols = (centres[:, 1:2] + offsets) % n
    crops = _shifted_pupils(config, grid, rows, cols).astype(np.float64)
    ab = PupilAberration.coerce(aberration)
    if not ab.is_null:
        phase = ab.phase(config)
        if k < n:  # a whole-grid crop takes the phase map as it is
            phase = phase[rows[:, :, None], cols[:, None, :]]
        crops = crops * phase
    return crops, np.nonzero(grid.valid)


def defocus_phase(config: OpticalConfig, defocus_nm: float) -> np.ndarray:
    """Paraxial defocus phase factor exp(-i pi lambda z (f^2 + g^2)).

    Multiplying the pupil by this complex factor models a wafer-plane
    focus offset of ``defocus_nm`` (Fresnel approximation).  This is the
    focus axis of the process-window subsystem: every focus value of a
    :class:`repro.optics.config.ProcessWindow` images through one such
    defocused crop stack (cached per focus in :mod:`repro.optics.cache`
    and streamed through the fused ``incoherent_image_stack``
    primitive); the paper's own PVB (Eq. (8)) uses the dose corners
    only, which share the zero-defocus pass.

    Note the phase is *even* in (f, g): frequency reversal leaves it
    unchanged, so the ``+/-sigma`` structural pairing of the shifted
    pupils survives defocus (see :func:`conj_pair_indices`).  The
    exponent lives in :func:`repro.optics.zernike.defocus_exponent` —
    the same array a ``{"Z4": z}`` aberration spec exponentiates, which
    is what makes the ``defocus_nm`` sugar bitwise-exact.
    """
    return np.exp(1j * defocus_exponent(config, defocus_nm))


def conj_pair_indices(
    crops: np.ndarray, centres: np.ndarray, valid_index, grid: SourceGrid
) -> Optional[np.ndarray]:
    """Frequency-reversal pairing of a pupil crop stack, if usable.

    The source grid is point-symmetric, so the pupil shifted by
    ``sigma`` is the frequency reversal of the one shifted by
    ``-sigma``: its crop sits at the negated centre and is the
    reversed crop — the structure the fused primitives exploit to
    evaluate only one coherent field per ``+/-sigma`` pair on real
    masks.  The candidate pairing (from the source coordinates) is
    verified against the centres and the actual crop samples, so
    asymmetric custom stacks simply opt out (``None``).  Complex
    (aberrated) crops also return ``None``: the *structural* pairing
    survives defocus (the defocus phase is even in frequency), but the
    conjugate *field* identity ``F_{-sigma} = conj(F_{+sigma})`` needs
    real kernels, so streaming cannot halve the FFT work there.
    """
    from . import fftlib

    if np.iscomplexobj(crops):
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
    if not np.array_equal(centres[pairs], -centres):
        return None
    # Pupils are exact 0/1 indicators, so the reversal identity can
    # be checked bitwise (one-time cost per build).
    reps = np.nonzero(pairs > np.arange(pairs.size))[0]
    if not np.array_equal(crops[pairs[reps]], fftlib.freq_reverse(crops[reps])):
        return None
    return pairs
