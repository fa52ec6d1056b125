"""BiSMO — reproduction of "Efficient Bilevel Source Mask Optimization"
(Chen, He, Xu, Geng, Yu — DAC 2024, arXiv:2405.09548).

Package layout
--------------
``repro.autodiff``
    Numpy reverse-mode autodiff with complex/FFT support and exact
    double-backward HVPs (PyTorch stand-in; nothing else is installed).
``repro.geometry`` / ``repro.layouts``
    Rectilinear layout geometry, rasterization, EPE sites; GLP clip I/O
    and synthetic ICCAD13 / ICCAD-L / ISPD19-style datasets (Table 2).
``repro.optics``
    Abbe and Hopkins/SOCS imaging, source templates, pupil, resist.
``repro.smo``
    The paper's contribution: the unified differentiable Abbe SMO
    objective and the BiSMO-FD / BiSMO-NMN / BiSMO-CG bilevel solvers,
    plus AM-SMO / MO / SO baselines.
``repro.baselines``
    NILT-style and DAC23-MILT-style published comparators.
``repro.metrics``
    L2 / PVB / EPE evaluation (Definitions 1-3).
``repro.harness``
    Regeneration of every table and figure (``bismo`` CLI).

Quickstart
----------
>>> from repro.optics import OpticalConfig, SourceGrid, annular
>>> from repro.smo import BiSMO
>>> cfg = OpticalConfig.preset("small")
>>> # target: (cfg.mask_size, cfg.mask_size) binary numpy array
>>> solver = BiSMO(cfg, target, method="nmn")
>>> src = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
>>> result = solver.run(src, iterations=40)
"""

__version__ = "0.1.0"

from . import autodiff, baselines, geometry, harness, layouts, metrics, opt, optics, smo, utils

__all__ = [
    "__version__",
    "autodiff",
    "geometry",
    "layouts",
    "optics",
    "smo",
    "baselines",
    "metrics",
    "opt",
    "harness",
    "utils",
]
