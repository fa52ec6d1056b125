"""Abbe-MO vs Hopkins-MO on an ICCAD13-style clip, with mask export.

Reproduces the Section 4.1 observation that lossless Abbe imaging gives
better mask optimization than truncated Hopkins/SOCS, then exports the
optimized mask back to rectilinear layout form (GLP), the way a real
OPC flow would hand it to mask synthesis.

Run:  python examples/mask_optimization_iccad.py
"""

import numpy as np

from repro.geometry import GridSpec, grid_to_rects, rasterize
from repro.harness import RunSettings, evaluate_final
from repro.layouts import dumps, iccad13
from repro.optics import OpticalConfig, SourceGrid, annular, binarize
from repro.smo import AbbeMO, HopkinsMO


def main() -> None:
    config = OpticalConfig.preset("small")
    clip = iccad13(num_clips=2)[1]
    grid = GridSpec(config.mask_size, config.pixel_nm)
    target = binarize(rasterize(clip.rects, grid))
    source_grid = SourceGrid.from_config(config)
    source = annular(source_grid, config.sigma_out, config.sigma_in)

    settings = RunSettings(config=config)

    results = {}
    for name, solver in (
        ("Abbe-MO", AbbeMO(config, target, source)),
        ("Hopkins-MO (Q=12)", HopkinsMO(config, target, source, num_kernels=12)),
    ):
        res = solver.run(iterations=40)
        # Both masks are judged binarized, under lossless Abbe imaging
        # of the fixed source they were optimized for.
        metrics = evaluate_final(res, clip, settings, source)
        results[name] = (res, metrics["l2_nm2"], metrics["pvb_nm2"])

    print(f"{'method':20s} {'final loss':>12s} {'L2 (nm^2)':>10s} {'PVB (nm^2)':>10s}")
    for name, (res, l2, pvb) in results.items():
        print(f"{name:20s} {res.final_loss:12.0f} {l2:10.0f} {pvb:10.0f}")

    # Export the Abbe-optimized mask to layout form.  Extra shapes beyond
    # the target are the SRAF-like assist features MO grows (Section 3.1
    # notes the target-initialized mask "facilitates SRAF generation").
    res, _, _ = results["Abbe-MO"]
    mask_img = binarize(1.0 / (1.0 + np.exp(-config.alpha_m * res.theta_m)))
    mask_rects = grid_to_rects(mask_img, grid)
    print(f"\noptimized mask vectorizes to {len(mask_rects)} rects "
          f"(target had {len(clip.rects)})")
    glp_text = dumps(clip.name + "_opt", {"M1": mask_rects})
    print("first lines of exported GLP:")
    print("\n".join(glp_text.splitlines()[:8]))


if __name__ == "__main__":
    main()
