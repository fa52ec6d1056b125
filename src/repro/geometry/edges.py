"""Edge measurement sites for Edge Placement Error (EPE) evaluation.

Definition 3 of the paper: EPE is the deviation between a feature edge's
intended and printed position.  Following the ICCAD13 contest convention
used by the paper's comparators, edges of the target pattern are sampled
at a fixed spacing and each sample becomes a measurement *site*; the
printed contour position is probed along the edge normal and a site whose
|EPE| exceeds a tolerance counts as one violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .raster import GridSpec
from .rect import Rect

__all__ = ["EPESite", "edge_sites", "measure_epe"]


@dataclass(frozen=True)
class EPESite:
    """One EPE measurement site.

    ``x_nm``/``y_nm`` sit exactly on a target edge; ``normal`` is the unit
    outward normal of the feature at that point (axis aligned).
    """

    x_nm: float
    y_nm: float
    normal: Tuple[float, float]

    @property
    def is_vertical_edge(self) -> bool:
        return self.normal[0] != 0.0


def edge_sites(
    rects: Sequence[Rect],
    spacing_nm: float = 40.0,
    corner_margin_nm: float = 10.0,
) -> List[EPESite]:
    """Sample measurement sites along the *boundary of the union* of rects.

    Edge segments interior to the union (shared between touching shapes)
    are skipped: they are not printable edges.  Corners are avoided by
    ``corner_margin_nm`` as in the contest EPE checkers.
    """
    sites: List[EPESite] = []
    for r in rects:
        for x1, y1, x2, y2, normal in (
            (r.x1, r.y1, r.x2, r.y1, (0.0, -1.0)),  # bottom
            (r.x1, r.y2, r.x2, r.y2, (0.0, 1.0)),  # top
            (r.x1, r.y1, r.x1, r.y2, (-1.0, 0.0)),  # left
            (r.x2, r.y1, r.x2, r.y2, (1.0, 0.0)),  # right
        ):
            horizontal = normal[0] == 0.0
            length = (x2 - x1) if horizontal else (y2 - y1)
            usable = length - 2 * corner_margin_nm
            if usable <= 0:
                continue
            count = max(1, int(usable // spacing_nm) + 1)
            offsets = np.linspace(corner_margin_nm, length - corner_margin_nm, count)
            for off in offsets:
                px = x1 + off if horizontal else float(x1)
                py = float(y1) if horizontal else y1 + off
                probe = (px + normal[0] * 0.5, py + normal[1] * 0.5)
                if _covered(rects, probe[0], probe[1], exclude=r):
                    continue  # interior (shared) edge segment
                sites.append(EPESite(px, py, normal))
    return sites


def _covered(rects: Iterable[Rect], x: float, y: float, exclude: Rect) -> bool:
    return any(r is not exclude and r.contains_point(x, y) for r in rects)


def measure_epe(
    printed: np.ndarray,
    sites: Sequence[EPESite],
    grid: GridSpec,
    threshold: float = 0.5,
    max_search_nm: float = 80.0,
) -> np.ndarray:
    """Signed EPE (nm) for every site against a printed image.

    Positive values mean the printed edge lies *outside* the target edge
    (over-print), negative inside (under-print).  Sites where no contour
    crossing is found within ``max_search_nm`` are assigned
    ``+/- max_search_nm`` (catastrophic open/short).

    Every site marches along its normal toward the contour in half-pixel
    steps, all sites in lockstep: one bilinear gather per step for the
    sites still searching, until every site has crossed.  A crossing is
    placed by linear interpolation between its last two samples.
    """
    step_nm = grid.pixel_nm / 2.0
    n_steps = int(max_search_nm / step_nm)
    x = np.array([s.x_nm for s in sites], dtype=np.float64)
    y = np.array([s.y_nm for s in sites], dtype=np.float64)
    nx = np.array([s.normal[0] for s in sites], dtype=np.float64)
    ny = np.array([s.normal[1] for s in sites], dtype=np.float64)
    prev = _sample(printed, grid, x, y)
    inside = prev >= threshold
    direction = np.where(inside, 1.0, -1.0)  # march toward the contour
    out = max_search_nm * direction
    active = np.arange(len(sites))
    for k in range(1, n_steps + 1):
        if not active.size:
            break
        d = k * step_nm * direction[active]
        val = _sample(
            printed, grid, x[active] + nx[active] * d, y[active] + ny[active] * d
        )
        crossed = np.where(inside[active], val < threshold, val >= threshold)
        done = active[crossed]
        lo, hi = prev[done], val[crossed]
        frac = (threshold - lo) / (hi - lo)
        out[done] = ((k - 1) + frac) * step_nm * direction[done]
        prev[active] = val
        active = active[~crossed]
    return out


def _sample(
    printed: np.ndarray,
    grid: GridSpec,
    x_nm: Union[float, np.ndarray],
    y_nm: Union[float, np.ndarray],
) -> np.ndarray:
    """Bilinear samples of the printed image at layout coordinates
    (equal-shape arrays, or scalars)."""
    col, row = grid.to_pixels(
        np.asarray(x_nm, dtype=np.float64), np.asarray(y_nm, dtype=np.float64)
    )
    n = grid.size
    # pixel centres sit at half-integer grid coords
    col = np.clip(col - 0.5, 0.0, n - 1.0)
    row = np.clip(row - 0.5, 0.0, n - 1.0)
    c0, r0 = col.astype(np.intp), row.astype(np.intp)
    c1, r1 = np.minimum(c0 + 1, n - 1), np.minimum(r0 + 1, n - 1)
    fc, fr = col - c0, row - r0
    top = printed[r0, c0] * (1 - fc) + printed[r0, c1] * fc
    bot = printed[r1, c0] * (1 - fc) + printed[r1, c1] * fc
    return top * (1 - fr) + bot * fr
