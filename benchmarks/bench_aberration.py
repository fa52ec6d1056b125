"""Aberration condition axis: shared-phase-group stacking vs per-corner passes.

The perf-regression gate for the Zernike aberration subsystem: a
3-aberration process window (nominal, astigmatism+defocus, coma —
crossed with 3 dose corners, so C=9 corners over F=3 pupil-phase
groups) evaluated through the fused condition axis
(:class:`repro.smo.ProcessWindowSMOObjective` ->
``engine.aerial_conditions`` -> one ``incoherent_image_stack`` node
sharing a single mask-spectrum FFT, corners sharing an aberration
sharing the whole imaging pass) must be

* >= ``SPEEDUP_GATE``x faster wall-clock than *per-corner independent
  passes* — one full ``incoherent_image`` evaluation (own mask FFT, own
  streamed kernel pass) per corner —

with loss/gradient parity to ``PARITY_RTOL`` against both that
per-corner loop and the composed-op reference graph on whole-grid
pupils (the ``ComposedAbbeImaging`` full-grid oracle of
``tests/oracles.py``, one ``incoherent_image_composed`` per condition),
so at a cropped scale it also pins the K x K pupil crops.
Results are appended to ``BENCH_aberration.json`` via
:mod:`bench_runner`.

Run as a script (CI parity mode skips the timing gate)::

    PYTHONPATH=src python benchmarks/bench_aberration.py          # full gate
    PYTHONPATH=src python benchmarks/bench_aberration.py --check  # parity only

or through pytest like the other bench modules::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_aberration.py

Knobs: ``BISMO_AB_SCALE`` (optical preset, default ``small``),
``BISMO_AB_TILES`` (batch size, default 4), ``BISMO_AB_CHECK_ONLY=1``
(parity asserts only — for shared CI runners where sub-second timings
flake).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, Tuple

import numpy as np

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.harness.runner import _annular_source
from repro.layouts import dataset_by_name, tile_stack
from repro.optics import OpticalConfig, ProcessWindow, fftlib
from repro.smo import ProcessWindowSMOObjective, dose_resist
from repro.smo.objective import robust_corner_loss
from repro.smo.parametrization import (
    init_theta_mask,
    init_theta_source,
    mask_from_theta,
    source_from_theta,
)
from bench_env import env_flag, env_int, env_str

# The composed-op reference engine is a test oracle (tests/oracles.py).
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.oracles import ComposedAbbeImaging, per_condition_loss  # noqa: E402

SCALE = env_str("BISMO_AB_SCALE", "small")
NUM_TILES = env_int("BISMO_AB_TILES", 4)
CHECK_ONLY = env_flag("BISMO_AB_CHECK_ONLY")

DOSES = (0.97, 1.0, 1.03)
#: The 3-aberration condition axis: nominal, an even-parity mix
#: (defocus + astigmatism), and an odd-parity coma condition.
ABERRATIONS = (
    None,
    {"Z4": 40.0, "Z5": 25.0},
    {"Z7": 30.0},
)

SPEEDUP_GATE = 1.5
PARITY_RTOL = 1e-8


def _setup(scale: str = SCALE, num_tiles: int = NUM_TILES):
    from conftest import rescale_clips

    cfg = OpticalConfig.preset(scale)
    window = ProcessWindow.from_grid(
        DOSES, focus_nm=(), aberrations=ABERRATIONS
    )
    ds = rescale_clips(dataset_by_name("ICCAD13", num_clips=num_tiles), cfg)
    targets = tile_stack(ds, cfg)
    source = _annular_source(cfg)
    theta_j = init_theta_source(source, cfg)
    theta_m = init_theta_mask(targets, cfg)
    objective = ProcessWindowSMOObjective(cfg, targets, window)
    return cfg, window, targets, theta_j, theta_m, objective


def _grads(loss_fn, theta_j, theta_m) -> Tuple[float, np.ndarray, np.ndarray]:
    tj = ad.Tensor(theta_j, requires_grad=True)
    tm = ad.Tensor(theta_m, requires_grad=True)
    loss = loss_fn(tj, tm)
    gj, gm = ad.grad(loss, [tj, tm])
    return float(loss.data), gj.data, gm.data


def _per_corner_loss_fn(cfg, window, targets, engine):
    """C independent imaging passes — one ``incoherent_image`` per corner.

    The pre-subsystem consumer pattern: every corner re-images the mask
    from scratch (its own mask FFT, its own streamed kernel pass), even
    when corners share an aberration.
    """
    targets_t = ad.Tensor(targets)
    corner_stacks = [
        engine.condition_stacks((c.aberrations,))[0] for c in window.corners
    ]

    def loss_fn(tj: ad.Tensor, tm: ad.Tensor) -> ad.Tensor:
        source = source_from_theta(tj, cfg)
        mask = mask_from_theta(tm, cfg)
        j = engine.source_weights(source)
        jn = F.div(j, F.add(F.sum(j), 1e-12))
        losses = []
        for corner, (stack, pairs) in zip(window.corners, corner_stacks):
            aerial = F.incoherent_image(
                mask, stack, jn, conj_pairs=pairs, centres=engine.pupil_centres
            )
            z = dose_resist(aerial, cfg, corner.dose, corner.intensity_threshold)
            losses.append(F.sum(F.power(F.sub(z, targets_t), 2.0)))
        return robust_corner_loss(losses, window)

    return loss_fn


def run_parity(setup=None) -> Dict[str, float]:
    """Fused stack == per-corner passes == composed-op reference."""
    cfg, window, targets, theta_j, theta_m, objective = setup or _setup()
    composed = ProcessWindowSMOObjective(
        cfg, targets, window, engine=ComposedAbbeImaging(cfg)
    )
    lf, gjf, gmf = _grads(objective.loss, theta_j, theta_m)
    ln, gjn, gmn = _grads(
        _per_corner_loss_fn(cfg, window, targets, objective.engine),
        theta_j,
        theta_m,
    )
    lc, gjc, gmc = _grads(composed.loss, theta_j, theta_m)
    np.testing.assert_allclose(lf, ln, rtol=PARITY_RTOL)
    np.testing.assert_allclose(lf, lc, rtol=PARITY_RTOL)
    np.testing.assert_allclose(gjf, gjn, rtol=PARITY_RTOL, atol=1e-12)
    np.testing.assert_allclose(gmf, gmn, rtol=PARITY_RTOL, atol=1e-12)
    np.testing.assert_allclose(gjf, gjc, rtol=PARITY_RTOL, atol=1e-12)
    np.testing.assert_allclose(gmf, gmc, rtol=PARITY_RTOL, atol=1e-12)
    return {
        "loss": lf,
        "per_corner_loss_reldiff": abs(lf - ln) / abs(ln),
        "composed_loss_reldiff": abs(lf - lc) / abs(lc),
        "grad_j_maxdiff": float(np.abs(gjf - gjn).max()),
        "grad_m_maxdiff": float(np.abs(gmf - gmn).max()),
    }


def run_perf(setup=None, rounds: int = 5) -> Dict[str, float]:
    """Best-of-``rounds`` wall-clock: fused stack vs per-corner passes."""
    cfg, window, targets, theta_j, theta_m, objective = setup or _setup()
    per_corner = _per_corner_loss_fn(cfg, window, targets, objective.engine)

    def best_of(loss_fn) -> float:
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            _grads(loss_fn, theta_j, theta_m)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_fused = best_of(objective.loss)
    t_per_condition = best_of(per_condition_loss(objective))
    t_per_corner = best_of(per_corner)
    return {
        "corners": window.num_corners,
        "conditions": len(window.conditions()),
        "fused_ms": t_fused * 1e3,
        "per_condition_ms": t_per_condition * 1e3,
        "per_corner_ms": t_per_corner * 1e3,
        "speedup_vs_per_corner": t_per_corner / t_fused,
        "speedup_vs_per_condition": t_per_condition / t_fused,
    }


def _record(payload: Dict) -> None:
    try:
        from bench_runner import record_bench
    except ImportError:  # script run without benchmarks/ on sys.path
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from bench_runner import record_bench

    path = record_bench("aberration", payload)
    print(f"recorded -> {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="parity mode: run the numerical asserts, skip the timing "
        "gate (still records measurements)",
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--scale", default=SCALE, help="optical preset (default: %(default)s)"
    )
    parser.add_argument(
        "--tiles", type=int, default=NUM_TILES, help="batch size B"
    )
    args = parser.parse_args(argv)

    setup = _setup(args.scale, args.tiles)
    payload: Dict = {
        "scale": args.scale,
        "tiles": args.tiles,
        "doses": list(DOSES),
        "aberrations": [a if a is None else dict(a) for a in ABERRATIONS],
        "check_only": bool(args.check),
        "fftlib": fftlib.describe(),
    }
    payload["parity"] = run_parity(setup)
    print(
        f"parity ok: fused {len(DOSES) * len(ABERRATIONS)}-corner aberration "
        f"loss matches the per-corner passes and the composed reference to "
        f"{PARITY_RTOL:g}"
    )
    perf = run_perf(setup, rounds=args.rounds)
    payload["perf"] = perf
    print(
        f"B={args.tiles} {args.scale}, C={perf['corners']} corners / "
        f"F={perf['conditions']} aberration groups: fused "
        f"{perf['fused_ms']:.1f} ms vs per-condition "
        f"{perf['per_condition_ms']:.1f} ms vs per-corner "
        f"{perf['per_corner_ms']:.1f} ms "
        f"({perf['speedup_vs_per_corner']:.2f}x over per-corner)"
    )
    _record(payload)
    if not args.check:
        assert perf["speedup_vs_per_corner"] >= SPEEDUP_GATE, (
            f"shared-phase-group stacking only "
            f"{perf['speedup_vs_per_corner']:.2f}x over per-corner passes "
            f"(gate: {SPEEDUP_GATE}x)"
        )
        print(f"gate passed: >= {SPEEDUP_GATE}x over per-corner passes")
    return 0


# ----------------------------------------------------------------------
# pytest entry points (same checks, bench-suite conventions)
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - script mode needs no pytest
    pytest = None
else:

    @pytest.fixture(scope="module")
    def shared_setup():
        return _setup()


def test_aberration_parity(shared_setup):
    run_parity(shared_setup)


def test_aberration_speedup(shared_setup):
    if CHECK_ONLY:
        pytest.skip("BISMO_AB_CHECK_ONLY=1: parity-only mode, gate skipped")
    perf = run_perf(shared_setup)
    print(
        f"\naberration window: B={NUM_TILES} {SCALE} C={perf['corners']} "
        f"F={perf['conditions']} "
        f"speedup={perf['speedup_vs_per_corner']:.2f}x"
    )
    assert perf["speedup_vs_per_corner"] >= SPEEDUP_GATE


if __name__ == "__main__":
    raise SystemExit(main())
