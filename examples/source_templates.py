"""Source-only optimization from different illumination templates.

Shows why SMO optimizes the source at all: for a fixed mask, the choice
of illumination (annular / quasar / dipole / conventional) changes the
printability loss substantially, and gradient-based SO (possible only
with the Abbe model — Section 2.1) improves each starting template.

Run:  python examples/source_templates.py
"""

import numpy as np

from repro.geometry import GridSpec, rasterize
from repro.layouts import iccad13
from repro.optics import (
    OpticalConfig,
    SourceGrid,
    annular,
    binarize,
    conventional,
    dipole,
    quasar,
)
from repro.smo import (
    ProcessWindowSMOObjective,
    SourceOptimizer,
    init_theta_mask,
    init_theta_source,
)


def render_source(src: np.ndarray) -> str:
    """Tiny ASCII heat map of the source plane."""
    glyphs = " .:-=+*#%@"
    rows = []
    for row in src:
        rows.append("".join(glyphs[int(v * (len(glyphs) - 1))] for v in row))
    return "\n".join(rows)


def main() -> None:
    config = OpticalConfig.preset("small")
    clip = iccad13(num_clips=1)[0]
    grid = GridSpec(config.mask_size, config.pixel_nm)
    target = binarize(rasterize(clip.rects, grid))
    source_grid = SourceGrid.from_config(config)
    objective = ProcessWindowSMOObjective(config, target)
    theta_m = init_theta_mask(target, config)

    templates = {
        "annular": annular(source_grid, config.sigma_out, config.sigma_in),
        "quasar": quasar(source_grid, config.sigma_out, 0.4),
        "dipole-x": dipole(source_grid, config.sigma_out, 0.4, axis="x"),
        "conventional": conventional(source_grid, 0.7),
    }

    print(f"{'template':14s} {'initial loss':>13s} {'after SO':>13s}")
    best = None
    for name, template in templates.items():
        so = SourceOptimizer(config, target, lr=0.1, objective=objective)
        res = so.run(theta_m, init_theta_source(template, config), iterations=25)
        print(f"{name:14s} {res.losses[0]:13.0f} {res.final_loss:13.0f}")
        if best is None or res.final_loss < best[1].final_loss:
            best = (name, res)

    assert best is not None
    name, res = best
    final_src = 1.0 / (1.0 + np.exp(-config.alpha_j * res.theta_j))
    final_src[~source_grid.valid] = 0.0
    print(f"\nbest template: {name}; optimized source map:")
    print(render_source(final_src))


if __name__ == "__main__":
    main()
