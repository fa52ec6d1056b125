"""Process-window study: robust SMO vs nominal MO across dose x focus.

Uses the first-class condition axis: build a
:class:`repro.optics.ProcessWindow`, optimize one mask *robustly across
the whole window* (``process_window=`` on any solver), then judge both
the nominal and the robust mask with the harness judge,
:func:`repro.harness.evaluate_final`, into one record each.  The
process-window report renders the records' per-corner L2/EPE matrix
plus the window-wide variation band.  Ends with each mask's nominal L2,
PVB and EPE violations (the paper's Definitions 1-3), which the same
records carry.

Run:  PYTHONPATH=src python examples/process_window_study.py
"""

from repro.geometry import GridSpec, rasterize
from repro.harness import (
    RunRecord,
    RunSettings,
    evaluate_final,
    process_window_table,
    render_table,
)
from repro.layouts import iccad13
from repro.optics import (
    OpticalConfig,
    ProcessWindow,
    SourceGrid,
    annular,
    binarize,
)
from repro.smo import AbbeMO


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
    records = [
        RunRecord(
            method=name,
            dataset="",
            clip=clip.name,
            runtime_s=result.runtime_seconds,
            final_loss=result.final_loss,
            losses=result.losses,
            **evaluate_final(result, clip, settings, source),
        )
        for name, result in (("Abbe-MO", nominal), ("Abbe-MO(robust)", robust))
    ]

    print(render_table(process_window_table(records, value="l2")))
    print()
    print(render_table(process_window_table(records, value="epe")))
    band_nom, band_rob = records[0].band_nm2, records[1].band_nm2
    print(
        f"\nvariation band across all {window.num_corners} corners: "
        f"nominal {band_nom:,.0f} nm^2 vs robust {band_rob:,.0f} nm^2"
    )

    # ---- the paper's metrics at the nominal condition ----------------
    # Every record also carries the binary mask's metrics at the paper's
    # own window (nominal and +/-2 % dose, no defocus).
    print(f"\n{'mask':<16} {'L2 (nm^2)':>10} {'PVB (nm^2)':>11} {'EPE viol.':>9}")
    for rec in records:
        print(
            f"{rec.method:<16} {rec.l2_nm2:>10,.0f} {rec.pvb_nm2:>11,.0f} "
            f"{rec.epe_violations:>9d}"
        )


if __name__ == "__main__":
    main()
