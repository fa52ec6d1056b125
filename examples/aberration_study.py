"""Aberration study: nominal vs robust vs adaptive-minimax corner matrix.

Exercises the Zernike aberration subsystem end to end: build a process
window whose corners drift in *pupil phase* — defocus (Z4), astigmatism
(Z5) and coma (Z7) — not just dose, then optimize one mask three ways
under the same iteration budget:

* **nominal** — classic MO, blind to the window;
* **robust sum** — the weighted-sum corner loss (static weights, the
  paper-style gamma-on-nominal weighting);
* **adaptive** — ``robust="adaptive"``: an exponentiated-gradient
  ascent re-weights the corners by their loss share every iteration, a
  soft-minimax loop that keeps shifting effort onto whichever corner is
  currently worst.

The harness judge (:func:`repro.harness.evaluate_final`) judges all
three masks at every corner, and the process-window report renders its
records (per-corner L2/EPE plus the window-wide variation band); the
script also prints the adaptive weight trajectory.  The closing check is the
acceptance bar of the aberration issue: the adaptive run's worst-corner
loss must be strictly below the static-sum run's.

Run:  PYTHONPATH=src python examples/aberration_study.py
"""

import numpy as np

from repro.geometry import GridSpec, rasterize
from repro.harness import (
    RunRecord,
    RunSettings,
    evaluate_final,
    process_window_table,
    render_table,
)
from repro.layouts import iccad13
from repro.optics import OpticalConfig, ProcessWindow, SourceGrid, annular, binarize
from repro.smo import AbbeMO

ITERATIONS = 40


def main() -> None:
    config = OpticalConfig.preset("small")
    # Dose x aberration grid: nominal, defocus, astigmatism, coma — the
    # static weights put most mass on the nominal condition (the classic
    # gamma-heavy weighting), which is exactly the setting where a hard
    # aberrated corner gets under-served by a fixed weighted sum.
    aberrated = ({"Z4": 80.0}, {"Z5": 35.0}, {"Z7": 30.0})
    conditions = 1 + len(aberrated)
    weights = []
    for _ in (0.98, 1.02):  # dose-major order, per-condition weights
        weights.extend([6.0] + [1.0] * len(aberrated))
    window = ProcessWindow.from_grid(
        doses=(0.98, 1.02),
        focus_nm=(0.0,),
        aberrations=aberrated,
        weights=weights,
    )
    print(
        f"window: {window.num_corners} corners over {conditions} pupil "
        f"conditions — {', '.join(ab.label for ab in window.conditions())}"
    )

    clip = iccad13(num_clips=1)[0]
    grid = GridSpec(config.mask_size, config.pixel_nm)
    target = binarize(rasterize(clip.rects, grid))
    source = annular(
        SourceGrid.from_config(config), config.sigma_out, config.sigma_in
    )

    # ---- three optimizations, one budget ------------------------------
    runs = {
        "nominal": AbbeMO(config, target, source),
        "robust-sum": AbbeMO(
            config, target, source, process_window=window, robust="sum"
        ),
        "adaptive": AbbeMO(
            config,
            target,
            source,
            process_window=window,
            robust="adaptive",
            robust_tau=1.0,  # EG ascent rate
        ),
    }
    results = {name: solver.run(iterations=ITERATIONS) for name, solver in runs.items()}

    # ---- corner matrix report -----------------------------------------
    settings = RunSettings(
        config=config, iterations=ITERATIONS, process_window=window
    )
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
        for name, result in results.items()
    ]
    print()
    print(render_table(process_window_table(records, value="l2")))
    print()
    print(render_table(process_window_table(records, value="epe")))

    # ---- worst-corner comparison on the optimization loss -------------
    worst = {}
    for name, result in results.items():
        solver = runs[name]
        if name == "nominal":
            continue
        matrix = solver.objective.corner_loss_matrix(
            solver._theta_j_fixed.data, result.theta_m
        )
        worst[name] = matrix.sum(axis=1)
    labels = window.labels
    print("\nper-corner losses at the final mask (soft resist):")
    for name, losses in worst.items():
        worst_i = int(np.argmax(losses))
        print(
            f"  {name:>10}: worst corner {labels[worst_i]} = "
            f"{losses[worst_i]:.1f}  (all: "
            + ", ".join(f"{v:.1f}" for v in losses)
            + ")"
        )

    trajectory = results["adaptive"].corner_weight_matrix()
    drift = trajectory[-1] - trajectory[0]
    gained = int(np.argmax(drift))
    print(
        f"\nadaptive weight trajectory: corner {labels[gained]} gained the "
        f"most mass ({trajectory[0][gained]:.2f} -> {trajectory[-1][gained]:.2f}); "
        f"weight mass conserved at {trajectory[-1].sum():.1f}"
    )

    # The acceptance bar: adaptive strictly reduces the worst-corner loss.
    assert worst["adaptive"].max() < worst["robust-sum"].max(), (
        "adaptive minimax failed to beat the static weighted sum on the "
        "worst corner"
    )
    print(
        f"\nadaptive worst-corner loss {worst['adaptive'].max():.1f} < "
        f"robust-sum worst-corner loss {worst['robust-sum'].max():.1f}  ✓"
    )


if __name__ == "__main__":
    main()
