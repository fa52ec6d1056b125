"""Hopkins imaging via TCC + SOCS decomposition — Equations (3)-(4).

Hopkins' approach folds the source and projector into the transmission
cross-coefficients (TCC) and approximates the resulting quadratic form
with its top-Q eigenpairs (Sum of Coherent Systems, SOCS).  The source is
*baked into* the TCC: gradients w.r.t. the source are unavailable, which
is exactly why the paper's SO and BiSMO require Abbe.  The class here is
autodiff-differentiable w.r.t. the mask only and powers the MO-only
baselines (NILT-style, DAC23-MILT-style) plus the hybrid Abbe-Hopkins
AM-SMO comparator [13].

Normalization matches :class:`repro.optics.abbe.AbbeImaging` (TCC divided
by the total source weight), so a *full-rank* SOCS reproduces Abbe's
aerial image to machine precision — a property the test-suite asserts.
SOCS imaging is the same weighted incoherent sum as Abbe's, with the
eigenvalues as weights and the (phased) eigenvector spectra as kernels,
so :meth:`HopkinsImaging.aerial_conditions` is one
:func:`repro.autodiff.functional.incoherent_image_stack` node and the
engine's only imaging method; the rest derive from it
(:class:`repro.optics.engine.ImagingEngine`).
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .. import autodiff as ad
from ..autodiff import functional as F
from ..utils.seed import seeded_rng
from .config import OpticalConfig
from .engine import CONDITION_MEMO_MAX, ImagingEngine
from .source import SourceGrid

__all__ = ["HopkinsImaging", "build_tcc", "socs_kernels"]

_EPS = 1e-12


def _support_indices(config: OpticalConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Frequency samples that can pass any shifted pupil (|f| <= 2 fc)."""
    fx, fy = config.freq_grid()
    mask = np.hypot(fx, fy) <= 2.0 * config.cutoff_freq + 1e-15
    return np.nonzero(mask)


def build_tcc(
    config: OpticalConfig,
    source: np.ndarray,
    source_grid: Optional[SourceGrid] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Assemble the (real symmetric PSD) TCC matrix on the support points.

    Returns ``(tcc, support_idx)`` where ``tcc[p, q] =
    (1/sum j) * sum_s j_s H(f_p + f_s) H(f_q + f_s)`` and ``support_idx``
    indexes the mask frequency grid.
    """
    grid = source_grid or SourceGrid.from_config(config)
    if source.shape != grid.shape:
        raise ValueError(f"source shape {source.shape} != grid {grid.shape}")
    sup_r, sup_c = _support_indices(config)
    fx, fy = config.freq_grid()
    fp_x = fx[sup_r, sup_c]  # (P,)
    fp_y = fy[sup_r, sup_c]
    off_x, off_y = grid.freq_offsets(config)  # (S,)
    j = source[grid.valid].astype(np.float64)
    fc = config.cutoff_freq
    # B[s, p] = H(f_p + f_s): does support point p pass the pupil shifted by s?
    dist_sq = (fp_x[None, :] + off_x[:, None]) ** 2 + (fp_y[None, :] + off_y[:, None]) ** 2
    b = (dist_sq <= (fc + 1e-15) ** 2).astype(np.float64)
    tcc = (b.T * j) @ b / (j.sum() + _EPS)
    return tcc, (sup_r, sup_c)


def socs_kernels(
    config: OpticalConfig,
    source: np.ndarray,
    num_kernels: Optional[int] = None,
    source_grid: Optional[SourceGrid] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Top-Q SOCS eigenpairs of the TCC, embedded on the full freq grid.

    Returns ``(weights, kernels, tcc_trace)``: ``weights`` are the
    eigenvalues ``kappa_q`` (descending), ``kernels`` is a real
    ``(Q, N, N)`` array of eigenvector frequency spectra ``Phi_q`` in
    fftfreq layout, and ``tcc_trace`` is the full TCC trace (total
    imaging energy, for truncation-loss diagnostics).
    """
    q = num_kernels or config.socs_terms
    tcc, (sup_r, sup_c) = build_tcc(config, source, source_grid)
    tcc_trace = float(np.trace(tcc))
    p = tcc.shape[0]
    q = min(q, p)
    if q >= p - 1:
        vals, vecs = scipy.linalg.eigh(tcc)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        vals, vecs = vals[:q], vecs[:, :q]
    else:
        # A seeded start vector: ARPACK's default random one would make
        # two decompositions of one TCC differ at ~1e-15.
        v0 = seeded_rng("hopkins", "socs", p).standard_normal(p)
        vals, vecs = scipy.sparse.linalg.eigsh(tcc, k=q, which="LA", v0=v0)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
    vals = np.clip(vals, 0.0, None)  # PSD up to numerical noise
    n = config.mask_size
    kernels = np.zeros((q, n, n), np.float64)
    kernels[:, sup_r, sup_c] = vecs.T
    return vals, kernels, tcc_trace


class HopkinsImaging(ImagingEngine):
    """SOCS-truncated Hopkins imaging engine (mask-differentiable only).

    Implements the :class:`repro.optics.engine.ImagingEngine` protocol
    with a baked-in source (every imaging method rejects a ``source``
    argument).

    Parameters
    ----------
    config:
        Optical configuration (``config.socs_terms`` is the default Q).
    source:
        Fixed source magnitude image, shape ``(N_j, N_j)``.  Changing the
        source requires rebuilding the TCC (the inefficiency the paper's
        Abbe framework removes).  The decomposition itself is shared
        through :mod:`repro.optics.cache`.
    num_kernels:
        SOCS truncation order Q; ``None`` uses ``config.socs_terms``;
        pass the full support size for a lossless (test) decomposition.
    defocus_nm:
        Wafer-plane focus offset.  For *any* unit-modulus pupil-phase
        factor ``D`` (defocus, astigmatism, coma, spherical, or a raw
        map — see :class:`repro.optics.zernike.PupilAberration`) the
        aberrated TCC is the nominal TCC conjugated by ``D``:
        ``TCC_D[p, q] = D(f_p) conj(D(f_q)) TCC_0[p, q]`` — a unitary
        diagonal congruence, so the eigenvalues are unchanged and the
        aberrated SOCS kernels are exactly ``Phi_q * D``.  An aberration
        condition therefore costs one elementwise phase multiply, never
        a TCC re-assembly or re-decomposition (the identity behind
        :meth:`condition_kernels`).
    """

    def __init__(
        self,
        config: OpticalConfig,
        source: np.ndarray,
        num_kernels: Optional[int] = None,
        defocus_nm: float = 0.0,
    ):
        from .zernike import PupilAberration

        config.validate_sampling()
        self.config = config
        self.aberration = PupilAberration.defocus(float(defocus_nm))
        self.defocus_nm = float(defocus_nm)
        from . import cache

        self.weights, self._base_kernel_stack, self.tcc_trace = cache.socs(
            config, source, num_kernels
        )
        self._kernel_stack = self._aberrated_kernels(self.aberration)
        self.num_kernels = self._kernel_stack.shape[0]
        self._weight_tensor = ad.Tensor(self.weights)
        #: Per-condition kernel-stack memo for the condition axis.
        self._condition_memo: dict = {
            self.aberration.cache_key: self._kernel_stack
        }
        #: Guards the memo against concurrent condition-axis builds.
        self._memo_lock = threading.Lock()

    def _aberrated_kernels(self, aberration) -> "ad.Tensor":
        """Nominal SOCS kernels phased to an aberration condition (exact
        for any unit-modulus ``D``, see class docstring); the null spec
        shares the cached base stack."""
        from .zernike import PupilAberration

        ab = PupilAberration.coerce(aberration)
        if ab.is_null:
            return self._base_kernel_stack
        phase = ab.phase(self.config)
        return ad.Tensor(self._base_kernel_stack.data * phase[None, :, :])

    def condition_kernels(self, conditions):
        """Per-condition SOCS kernel tensors (memoized phase multiplies,
        bounded by ``CONDITION_MEMO_MAX``).  Entries are defocus floats
        or any :meth:`PupilAberration.coerce` argument."""
        from .zernike import PupilAberration

        out = []
        for condition in conditions:
            ab = PupilAberration.coerce(condition)
            key = ab.cache_key
            with self._memo_lock:
                entry = self._condition_memo.get(key)
            if entry is None:
                built = self._aberrated_kernels(ab)
                with self._memo_lock:
                    entry = self._condition_memo.get(key)
                    if entry is None:
                        if len(self._condition_memo) >= CONDITION_MEMO_MAX:
                            for memo_key in self._condition_memo:
                                if memo_key != self.aberration.cache_key:
                                    del self._condition_memo[memo_key]
                                    break
                        self._condition_memo[key] = built
                        entry = built
            out.append(entry)
        return out

    def aerial_conditions(
        self,
        mask: ad.Tensor,
        source: Optional[ad.Tensor] = None,
        conditions=(0.0,),
    ) -> ad.Tensor:
        """Aerial stack across pupil conditions: ``(F, B, N, N)``.

        ``I = sum_q kappa_q |IFFT(Phi_q * FFT(M))|^2`` (Eq. (4)) per
        condition, as one fused ``incoherent_image_stack`` node over the
        per-condition phased SOCS kernel stacks (arbitrary aberrations —
        the rank-preserving phase identity, see the class docstring),
        sharing a single mask-spectrum FFT.  ``conditions`` entries are
        defocus floats or any :meth:`PupilAberration.coerce` argument.
        Single ``(N, N)`` masks return ``(F, N, N)``.  ``source`` must
        be None (baked into the TCC); SOCS kernels carry no
        ``+/-sigma`` pairing, so no ``conj_pairs`` are passed, and they
        are whole-grid kernels (the primitive's K == N case, no
        centres).
        """
        if source is not None:
            raise ValueError(
                "HopkinsImaging bakes the source into the TCC; "
                "rebuild the engine to change it"
            )
        return F.incoherent_image_stack(
            mask, self.condition_kernels(conditions), self._weight_tensor
        )

    @property
    def truncation_energy(self) -> float:
        """Fraction of TCC trace captured by the retained eigenvalues.

        (Diagnostic for the accuracy loss that Table 3 attributes to
        Hopkins truncation.)
        """
        return float(self.weights.sum() / (self.tcc_trace + _EPS))
