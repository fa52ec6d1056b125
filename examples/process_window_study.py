"""Process-window study: robust SMO vs nominal MO across dose x focus.

Uses the first-class condition axis (PR 4): build a
:class:`repro.optics.ProcessWindow`, optimize one mask *robustly across
the whole window* (``process_window=`` on any solver), then judge both
the nominal and the robust mask at every corner with the harness
process-window report — per-corner L2/EPE matrix plus the window-wide
variation band.  Ends with each mask's nominal L2, PVB and EPE
violations (the paper's Definitions 1-3).

Run:  PYTHONPATH=src python examples/process_window_study.py
"""

import numpy as np

from repro.geometry import GridSpec, rasterize
from repro.harness import (
    RunSettings,
    evaluate_process_window,
    process_window_table,
    render_table,
)
from repro.layouts import iccad13
from repro.metrics import epe_report, l2_error_nm2, pvb_nm2
from repro.optics import (
    OpticalConfig,
    ProcessWindow,
    SourceGrid,
    annular,
    binarize,
)
from repro.smo import AbbeMO, ProcessWindowSMOObjective, init_theta_source


def main() -> None:
    config = OpticalConfig.preset("small")
    window = ProcessWindow.from_grid(
        doses=(0.96, 1.0, 1.04), focus_nm=(0.0, 60.0, 120.0)
    )
    clip = iccad13(num_clips=1)[0]
    grid = GridSpec(config.mask_size, config.pixel_nm)
    target = binarize(rasterize(clip.rects, grid))
    source = annular(
        SourceGrid.from_config(config), config.sigma_out, config.sigma_in
    )

    # ---- nominal MO vs robust MO across the window --------------------
    nominal = AbbeMO(config, target, source).run(iterations=40)
    robust = AbbeMO(
        config, target, source, process_window=window
    ).run(iterations=40)

    settings = RunSettings(config=config, iterations=40, process_window=window)
    records = []
    for result in (nominal, robust):
        rec = evaluate_process_window(
            result, clip, settings, source_fallback=source
        )
        rec.method = "Abbe-MO" if result is nominal else "Abbe-MO(robust)"
        records.append(rec)

    print(render_table(process_window_table(records, value="l2")))
    print()
    print(render_table(process_window_table(records, value="epe")))
    band_nom, band_rob = records[0].band_nm2, records[1].band_nm2
    print(
        f"\nvariation band across all {window.num_corners} corners: "
        f"nominal {band_nom:,.0f} nm^2 vs robust {band_rob:,.0f} nm^2"
    )

    # ---- the paper's metrics at the nominal condition ----------------
    judge = ProcessWindowSMOObjective(config, target)
    theta_j = init_theta_source(source, config)
    print(f"\n{'mask':<16} {'L2 (nm^2)':>10} {'PVB (nm^2)':>11} {'EPE viol.':>9}")
    for rec, result in zip(records, (nominal, robust)):
        # +/-1e3 drives the mask sigmoid to exactly 0/1: the binary mask.
        theta_m = np.where(result.theta_m >= 0.0, 1e3, -1e3)
        images = judge.images(theta_j, theta_m)
        l2 = l2_error_nm2(images["resist"], target, config)
        pvb = pvb_nm2(images["resist_min"], images["resist_max"], config)
        epe = epe_report(images["resist"], clip.rects, config)
        print(f"{rec.method:<16} {l2:>10,.0f} {pvb:>11,.0f} {epe.violations:>9d}")


if __name__ == "__main__":
    main()
