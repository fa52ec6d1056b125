"""BiSMO vs AM-SMO convergence — the Figure 3 story on one clip.

Runs the alternating-minimization baseline and the three bilevel
variants under the same step budget and prints an ASCII convergence
plot: AM-SMO shows its characteristic zigzag (phase switching) while the
BiSMO variants descend smoothly past it.

Run:  python examples/bilevel_vs_alternating.py
"""

import numpy as np

from repro.geometry import GridSpec, rasterize
from repro.harness import ascii_plot
from repro.harness.figures import FigureSeries
from repro.layouts import iccad13
from repro.optics import OpticalConfig, SourceGrid, annular, binarize
from repro.smo import AMSMO, BiSMO, ProcessWindowSMOObjective


def main() -> None:
    config = OpticalConfig.preset("small")
    clip = iccad13(num_clips=1)[0]
    grid = GridSpec(config.mask_size, config.pixel_nm)
    target = binarize(rasterize(clip.rects, grid))
    source_grid = SourceGrid.from_config(config)
    source = annular(source_grid, config.sigma_out, config.sigma_in)
    objective = ProcessWindowSMOObjective(config, target)

    series = []

    am = AMSMO(config, target, rounds=3, so_steps=8, mo_steps=12).run(source)
    series.append(
        FigureSeries("AM-SMO", np.arange(len(am.losses)), am.log_losses())
    )
    print(f"AM-SMO             final loss {am.final_loss:12.0f}  ({am.runtime_seconds:.1f}s)")

    for method in ("fd", "cg", "nmn"):
        solver = BiSMO(
            config,
            target,
            method=method,
            damping=1.0 if method == "cg" else 0.0,
            objective=objective,
        )
        res = solver.run(source, iterations=30)
        series.append(
            FigureSeries(res.method, np.arange(len(res.losses)), res.log_losses())
        )
        print(
            f"{res.method:18s} final loss {res.final_loss:12.0f}  "
            f"({res.runtime_seconds:.1f}s)"
        )

    print("\nlog10(L_smo) vs step:")
    print(ascii_plot(series, width=70, height=16))


if __name__ == "__main__":
    main()
