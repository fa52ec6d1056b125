"""Quickstart: run BiSMO-NMN on one synthetic ICCAD13-style clip.

Demonstrates the minimal end-to-end flow:

1. pick an optical configuration,
2. load a benchmark clip and rasterize it to the mask grid,
3. build the annular source template of the paper,
4. run the bilevel solver,
5. report the paper's metrics (L2 / PVB / EPE).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.geometry import GridSpec, rasterize
from repro.layouts import iccad13
from repro.metrics import epe_report, l2_error_nm2, pvb_nm2
from repro.optics import OpticalConfig, SourceGrid, annular, binarize
from repro.smo import BiSMO, ProcessWindowSMOObjective


def main() -> None:
    # "small" = 64x64 grid over the 4 um^2 tile: seconds, not minutes.
    # Use OpticalConfig.preset("default") or "paper" for higher fidelity.
    config = OpticalConfig.preset("small")

    clip = iccad13(num_clips=1)[0]
    grid = GridSpec(config.mask_size, config.pixel_nm)
    target = binarize(rasterize(clip.rects, grid))
    print(f"clip {clip.name}: {len(clip.rects)} rects, {clip.area_nm2} nm^2")

    source_grid = SourceGrid.from_config(config)
    source0 = annular(source_grid, config.sigma_out, config.sigma_in)
    print(f"annular source: {int(source0.sum())} of {source_grid.num_valid} points lit")

    solver = BiSMO(config, target, method="nmn", unroll_steps=3, terms=5)
    result = solver.run(source0, iterations=30)
    print(
        f"{result.method}: loss {result.losses[0]:.0f} -> {result.final_loss:.0f} "
        f"in {result.runtime_seconds:.1f}s"
    )

    # Judge the final (source, mask) pair with the lossless Abbe model
    # (the SMO objective's default window is the paper's loss).
    objective = ProcessWindowSMOObjective(config, target)
    theta_m_binary = np.where(result.theta_m >= 0, 1e3, -1e3)  # manufacturable mask
    images = objective.images(result.theta_j, theta_m_binary)
    l2 = l2_error_nm2(images["resist"], target, config)
    pvb = pvb_nm2(images["resist_min"], images["resist_max"], config)
    epe = epe_report(images["resist"], clip.rects, config)
    print(f"L2  = {l2:,.0f} nm^2")
    print(f"PVB = {pvb:,.0f} nm^2")
    print(f"EPE = {epe.violations} violations over {epe.num_sites} sites")


if __name__ == "__main__":
    main()
