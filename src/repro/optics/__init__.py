"""Lithography simulation substrate: optical configuration, source
templates, pupil, the unified :class:`ImagingEngine` protocol with its
Abbe and Hopkins/SOCS implementations, the shared optics cache, the
FFT seam (:mod:`repro.optics.backend`) with its thread policy
(:mod:`repro.optics.fftlib`), and the resist model."""

from . import fftlib
from . import backend
from .config import OpticalConfig, ProcessCorner, ProcessWindow
from .source import (
    SourceGrid,
    annular,
    coherent_point,
    conventional,
    dipole,
    quasar,
)
from .zernike import (
    NOLL_INDICES,
    ZERNIKE_TERMS,
    PupilAberration,
    defocus_to_wavefront_nm,
    parse_aberration_spec,
    term_parity,
    wavefront_to_defocus_nm,
    zernike_polynomial,
    zernike_radial,
)
from .pupil import (
    conj_pair_indices,
    crop_geometry,
    defocus_phase,
    pupil,
    pupil_crops,
)
from .engine import ImagingEngine, as_tile_batch
from .abbe import AbbeImaging
from .hopkins import HopkinsImaging, build_tcc, socs_kernels
from .resist import binarize, calibrate_threshold, printed_area_nm2, resist_image
from . import cache

__all__ = [
    "OpticalConfig",
    "ProcessCorner",
    "ProcessWindow",
    "SourceGrid",
    "annular",
    "quasar",
    "dipole",
    "conventional",
    "coherent_point",
    "pupil",
    "crop_geometry",
    "pupil_crops",
    "defocus_phase",
    "conj_pair_indices",
    "PupilAberration",
    "ZERNIKE_TERMS",
    "NOLL_INDICES",
    "zernike_polynomial",
    "zernike_radial",
    "term_parity",
    "parse_aberration_spec",
    "defocus_to_wavefront_nm",
    "wavefront_to_defocus_nm",
    "ImagingEngine",
    "as_tile_batch",
    "AbbeImaging",
    "HopkinsImaging",
    "build_tcc",
    "socs_kernels",
    "resist_image",
    "binarize",
    "printed_area_nm2",
    "calibrate_threshold",
    "cache",
    "fftlib",
    "backend",
]
