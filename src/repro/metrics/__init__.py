"""Evaluation metrics (Definitions 1-3): squared L2 error, process
variation band, and edge placement error."""

from .l2 import l2_error_nm2, l2_error_pixels
from .pvb import pvb_band_nm2, pvb_band_pixels, pvb_nm2, pvb_pixels
from .epe import DEFAULT_EPE_TOLERANCE_NM, EPEReport, epe_report

__all__ = [
    "l2_error_nm2",
    "l2_error_pixels",
    "pvb_nm2",
    "pvb_pixels",
    "pvb_band_nm2",
    "pvb_band_pixels",
    "EPEReport",
    "epe_report",
    "DEFAULT_EPE_TOLERANCE_NM",
]
