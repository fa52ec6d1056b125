"""The paper's core contribution: the unified Abbe-based SMO objective
(Eqs. (7)-(10)) and the bilevel BiSMO solvers (Section 3.2), plus the
AM-SMO / MO-only / SO-only baselines the paper compares against."""

from .parametrization import (
    cosine_activation,
    init_theta_mask,
    init_theta_source,
    mask_from_theta,
    mask_from_theta_cosine,
    source_from_theta,
)
from .objective import (
    ROBUST_MODES,
    AdaptiveCornerWeights,
    adaptive_corner_update,
    HopkinsMOObjective,
    ProcessWindowSMOObjective,
    SourceBasisLoss,
    dose_resist,
    robust_corner_loss,
    smo_loss_from_aerial,
)
from .state import IterationRecord, SMOResult
from .mo_only import AbbeMO, HopkinsMO
from .so_only import SourceOptimizer
from .am import AMSMO
from .bismo import BiSMO, HypergradientContext
from .unroll import unrolled_hypergradient
from .fd import fd_hypergradient
from .nmn import neumann_hypergradient
from .cg import cg_hypergradient

__all__ = [
    "mask_from_theta",
    "source_from_theta",
    "init_theta_mask",
    "init_theta_source",
    "cosine_activation",
    "mask_from_theta_cosine",
    "HopkinsMOObjective",
    "ProcessWindowSMOObjective",
    "SourceBasisLoss",
    "ROBUST_MODES",
    "AdaptiveCornerWeights",
    "adaptive_corner_update",
    "dose_resist",
    "robust_corner_loss",
    "smo_loss_from_aerial",
    "IterationRecord",
    "SMOResult",
    "AbbeMO",
    "HopkinsMO",
    "SourceOptimizer",
    "AMSMO",
    "BiSMO",
    "HypergradientContext",
    "fd_hypergradient",
    "unrolled_hypergradient",
    "neumann_hypergradient",
    "cg_hypergradient",
]
