"""Edge Placement Error — Definition 3 of the paper.

Following the ICCAD13 contest convention (reference [17] of the paper):
target edges are sampled into measurement sites; at each site the
printed contour's displacement along the edge normal is measured, and a
site whose |EPE| exceeds a tolerance counts as one violation.  Table 4
reports the average violation count per clip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..geometry import EPESite, GridSpec, Rect, edge_sites, measure_epe
from ..optics import OpticalConfig

__all__ = ["EPEReport", "epe_report", "epe_reports", "DEFAULT_EPE_TOLERANCE_NM"]

DEFAULT_EPE_TOLERANCE_NM = 15.0  # ICCAD13 contest spec


@dataclass(frozen=True)
class EPEReport:
    """EPE statistics over all measurement sites of one clip."""

    violations: int
    num_sites: int
    mean_abs_nm: float
    max_abs_nm: float
    tolerance_nm: float

    @property
    def violation_rate(self) -> float:
        return self.violations / self.num_sites if self.num_sites else 0.0


def epe_report(
    resist: np.ndarray,
    target_rects: Sequence[Rect],
    config: OpticalConfig,
    grid: GridSpec | None = None,
    tolerance_nm: float = DEFAULT_EPE_TOLERANCE_NM,
    spacing_nm: float = 40.0,
) -> EPEReport:
    """Measure EPE of a printed resist image against the target layout.

    ``grid`` maps the resist image onto layout coordinates; it defaults
    to a tile-aligned grid derived from ``config``.
    """
    (report,) = epe_reports(
        [resist], target_rects, config, grid, tolerance_nm, spacing_nm
    )
    return report


def epe_reports(
    resists: Sequence[np.ndarray],
    target_rects: Sequence[Rect],
    config: OpticalConfig,
    grid: GridSpec | None = None,
    tolerance_nm: float = DEFAULT_EPE_TOLERANCE_NM,
    spacing_nm: float = 40.0,
) -> List[EPEReport]:
    """:func:`epe_report` of every resist image of a sequence (or a
    ``(C, N, N)`` stack) against one target layout, whose sites are
    sampled once."""
    if grid is None:
        grid = GridSpec(config.mask_size, config.pixel_nm)
    sites = edge_sites(target_rects, spacing_nm=spacing_nm)
    if not sites:
        raise ValueError("no EPE sites found; target empty or all-internal edges")
    reports = []
    for resist in resists:
        abs_err = np.abs(measure_epe(resist, sites, grid))
        reports.append(
            EPEReport(
                violations=int((abs_err > tolerance_nm).sum()),
                num_sites=len(sites),
                mean_abs_nm=float(abs_err.mean()),
                max_abs_nm=float(abs_err.max()),
                tolerance_nm=tolerance_nm,
            )
        )
    return reports
