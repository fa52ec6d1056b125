"""Fused incoherent-imaging primitive vs the composed-op graph.

The perf-regression gate for PR 3's tentpole: evaluating the batched
SMO loss + gradients at B = 8 through the fused
:func:`repro.autodiff.functional.incoherent_image` node (streamed
forward, hand-written recomputing VJP) must be

* >= 1.5x faster wall-clock, and
* >= 4x lower peak traced allocation,

than the mathematically identical composed graph ``fft2 -> mul ->
ifft2 -> abs2 -> mul -> sum`` (the ``ComposedAbbeImaging`` oracle of
``tests/oracles.py``),
with mask/source gradients matching to 1e-8 and BiSMO end-to-end loss
traces unchanged to 1e-10.  Results are appended to
``BENCH_fused_imaging.json`` via :mod:`bench_runner` so future PRs
inherit a perf trajectory baseline.

Run as a script (CI parity mode skips the timing/memory gates)::

    PYTHONPATH=src python benchmarks/bench_fused_imaging.py          # full gate
    PYTHONPATH=src python benchmarks/bench_fused_imaging.py --check  # parity only

or through pytest like the other bench modules::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_fused_imaging.py

Knobs: ``BISMO_FUSED_SCALE`` (optical preset, default ``small``),
``BISMO_FUSED_TILES`` (batch size, default 8), ``BISMO_FUSED_CHECK_ONLY=1``
(parity asserts only — for shared CI runners where sub-second timings
flake).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
from typing import Dict, Tuple

import numpy as np

import repro.autodiff as ad
from repro.harness.runner import _annular_source
from repro.layouts import dataset_by_name, tile_stack
from repro.optics import AbbeImaging, OpticalConfig, backend, fftlib
from repro.smo import BiSMO, ProcessWindowSMOObjective
from repro.smo.parametrization import init_theta_mask, init_theta_source
from bench_env import env_flag, env_int, env_str

# The composed-op reference engine is a test oracle (tests/oracles.py).
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.oracles import ComposedAbbeImaging  # noqa: E402

SCALE = env_str("BISMO_FUSED_SCALE", "small")
NUM_TILES = env_int("BISMO_FUSED_TILES", 8)
CHECK_ONLY = env_flag("BISMO_FUSED_CHECK_ONLY")

SPEEDUP_GATE = 1.5
MEMORY_GATE = 4.0
GRAD_RTOL = 1e-8
LOSS_RTOL = 1e-10


def _setup(scale: str = SCALE, num_tiles: int = NUM_TILES):
    from conftest import rescale_clips

    cfg = OpticalConfig.preset(scale)
    ds = rescale_clips(dataset_by_name("ICCAD13", num_clips=num_tiles), cfg)
    targets = tile_stack(ds, cfg)
    source = _annular_source(cfg)
    theta_j = init_theta_source(source, cfg)
    theta_m = init_theta_mask(targets, cfg)
    fused = ProcessWindowSMOObjective(
        cfg, targets, engine=AbbeImaging(cfg)
    )
    composed = ProcessWindowSMOObjective(
        cfg, targets, engine=ComposedAbbeImaging(cfg)
    )
    return cfg, targets, source, theta_j, theta_m, fused, composed


def _loss_and_grads(
    objective: ProcessWindowSMOObjective,
    theta_j: np.ndarray,
    theta_m: np.ndarray,
) -> Tuple[float, np.ndarray, np.ndarray]:
    tj = ad.Tensor(theta_j, requires_grad=True)
    tm = ad.Tensor(theta_m, requires_grad=True)
    loss = objective.loss(tj, tm)
    gj, gm = ad.grad(loss, [tj, tm])
    return float(loss.data), gj.data, gm.data


def run_parity(setup=None) -> Dict[str, float]:
    """Assert fused == composed: loss, gradients, BiSMO end-to-end."""
    cfg, targets, source, theta_j, theta_m, fused, composed = setup or _setup()
    lf, gjf, gmf = _loss_and_grads(fused, theta_j, theta_m)
    lc, gjc, gmc = _loss_and_grads(composed, theta_j, theta_m)
    np.testing.assert_allclose(lf, lc, rtol=LOSS_RTOL)
    np.testing.assert_allclose(gjf, gjc, rtol=GRAD_RTOL, atol=1e-12)
    np.testing.assert_allclose(gmf, gmc, rtol=GRAD_RTOL, atol=1e-12)
    # End-to-end: a short joint BiSMO-NMN run (inner SO steps, exact
    # HVPs and mixed products from each engine's intensity basis and
    # mask adjoint, outer Adam updates) must produce the same loss trace
    # on both engines.
    traces = []
    for objective in (fused, composed):
        solver = BiSMO(
            cfg, targets, method="nmn", unroll_steps=2, terms=3,
            objective=objective,
        )
        result = solver.run(source, iterations=2)
        traces.append([rec.loss for rec in result.history])
    np.testing.assert_allclose(traces[0], traces[1], rtol=LOSS_RTOL)
    return {
        "loss": lf,
        "grad_j_maxdiff": float(np.abs(gjf - gjc).max()),
        "grad_m_maxdiff": float(np.abs(gmf - gmc).max()),
        "bismo_loss_trace_fused": traces[0],
        "bismo_loss_trace_composed": traces[1],
    }


def run_perf(setup=None, rounds: int = 5) -> Dict[str, float]:
    """Best-of-``rounds`` wall-clock and tracemalloc peaks for both paths."""
    _, _, _, theta_j, theta_m, fused, composed = setup or _setup()

    def best_of(objective) -> float:
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            _loss_and_grads(objective, theta_j, theta_m)
            times.append(time.perf_counter() - t0)
        return min(times)

    def peak_bytes(objective) -> int:
        tracemalloc.start()
        try:
            _loss_and_grads(objective, theta_j, theta_m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    t_fused, t_composed = best_of(fused), best_of(composed)
    m_fused, m_composed = peak_bytes(fused), peak_bytes(composed)
    return {
        "fused_ms": t_fused * 1e3,
        "composed_ms": t_composed * 1e3,
        "speedup": t_composed / t_fused,
        "fused_peak_mb": m_fused / 1e6,
        "composed_peak_mb": m_composed / 1e6,
        "memory_ratio": m_composed / m_fused,
    }


def _record(payload: Dict) -> None:
    try:
        from bench_runner import record_bench
    except ImportError:  # script run without benchmarks/ on sys.path
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from bench_runner import record_bench

    path = record_bench("fused_imaging", payload)
    print(f"recorded -> {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="parity mode: run the numerical asserts, skip the "
        "timing/memory gates (still records measurements)",
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
        "check_only": bool(args.check),
        "backend": backend.describe(),
        "fftlib": fftlib.describe(),
    }
    payload["parity"] = run_parity(setup)
    print(f"parity ok: grads match to {GRAD_RTOL:g}, BiSMO traces to {LOSS_RTOL:g}")
    perf = run_perf(setup, rounds=args.rounds)
    payload["perf"] = perf
    print(
        f"B={args.tiles} {args.scale}: fused {perf['fused_ms']:.1f} ms "
        f"vs composed {perf['composed_ms']:.1f} ms "
        f"({perf['speedup']:.2f}x), peak {perf['fused_peak_mb']:.1f} MB "
        f"vs {perf['composed_peak_mb']:.1f} MB "
        f"({perf['memory_ratio']:.1f}x lower)"
    )
    _record(payload)
    if not args.check:
        assert perf["speedup"] >= SPEEDUP_GATE, (
            f"fused path only {perf['speedup']:.2f}x over composed "
            f"(gate: {SPEEDUP_GATE}x)"
        )
        assert perf["memory_ratio"] >= MEMORY_GATE, (
            f"fused peak only {perf['memory_ratio']:.1f}x lower "
            f"(gate: {MEMORY_GATE}x)"
        )
        print(f"gates passed: >= {SPEEDUP_GATE}x time, >= {MEMORY_GATE}x memory")
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


def test_fused_parity(shared_setup):
    run_parity(shared_setup)


def test_fused_speedup_and_memory(shared_setup):
    if CHECK_ONLY:
        pytest.skip("BISMO_FUSED_CHECK_ONLY=1: parity-only mode, gates skipped")
    perf = run_perf(shared_setup)
    print(
        f"\nfused imaging: B={NUM_TILES} {SCALE} "
        f"speedup={perf['speedup']:.2f}x memory_ratio={perf['memory_ratio']:.1f}x"
    )
    assert perf["speedup"] >= SPEEDUP_GATE
    assert perf["memory_ratio"] >= MEMORY_GATE


if __name__ == "__main__":
    raise SystemExit(main())
