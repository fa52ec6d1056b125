"""NILT-style baseline — stand-in for Neural-ILT [7].

Neural-ILT couples a neural backbone with Hopkins-model ILT refinement
and optimizes nominal printability (no process-window term).  The
neural backbone cannot be reproduced offline (no training data or
torch); its *algorithmic role* — producing a quick printability-driven
mask from a Hopkins forward model — is played here by plain Hopkins ILT
minimizing the nominal L2 loss only.  As in the paper's Table 3/4, this
baseline lands clearly behind the process-window-aware methods, for the
same structural reason: truncated SOCS + no PVB objective.
"""

from __future__ import annotations

from typing import Optional

from ..optics import OpticalConfig, ProcessCorner, ProcessWindow
from ..smo.mo_only import HopkinsMO

__all__ = ["NILTBaseline"]


class NILTBaseline(HopkinsMO):
    """Hopkins ILT on the nominal-dose L2 objective only: Hopkins-MO
    whose default window is the one nominal corner.

    ``target`` may be a single ``(N, N)`` tile or a ``(B, N, N)`` stack;
    a stack optimizes the whole mask batch jointly through the engine's
    fused multi-tile forward — one ``incoherent_image`` node over the
    SOCS kernel stack per step — with per-tile losses in every record.

    The loss is the nominal corner at weight ``gamma``:
    ``gamma * || Z_nom - Z_t ||^2``.  ``process_window`` turns it into
    *robust printability*: the same per-corner L2 terms reduced across
    the dose x focus grid (corner weights are absolute — no extra
    ``gamma`` factor).  It remains structurally NILT: no PVB term, just
    printability evaluated at every corner instead of the nominal
    condition alone.
    """

    method_name = "NILT"

    @staticmethod
    def _default_window(config: OpticalConfig) -> Optional[ProcessWindow]:
        return ProcessWindow((ProcessCorner(1.0, 0.0, config.gamma, "nominal"),))
