"""Fast paths against their oracles on ICCAD13 tiles at the ``small`` preset.

The unit tests hold each fast path to its oracle on ``tiny``
configurations and synthetic kernels. These cases repeat the
comparisons on real layout tiles at ``small`` (64 px, 49 source
points), through the objectives and solvers that consume them:

* the fused imaging node vs the composed-op graph
  (``ComposedAbbeImaging``): loss, gradients, a short BiSMO-NMN loss
  trace and peak traced memory, B = 8;
* a 3 x 3 dose x focus window vs a per-corner engine loop and the
  per-condition loop on the full-grid engine, B = 4;
* a 3-dose x 3-aberration window vs per-corner imaging passes and the
  composed graph, B = 4;
* ``aerial_fast`` on a tile stack vs the per-tile fused and composed
  loops, B = 8;
* the fanned-out vs the serial condition axis, B = 2.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.harness.runner import _annular_source
from repro.layouts import dataset_by_name, tile_stack
from repro.optics import OpticalConfig, ProcessWindow, cache, fftlib
from repro.smo import BiSMO, ProcessWindowSMOObjective
from repro.smo.objective import robust_corner_loss
from repro.smo.parametrization import (
    init_theta_mask,
    init_theta_source,
    mask_from_theta,
    source_from_theta,
)
from tests.oracles import (
    ComposedAbbeImaging,
    FullGridAbbeImaging,
    dose_resist,
    per_condition_loss,
    per_corner_losses,
)

CFG = OpticalConfig.preset("small")
SOURCE = _annular_source(CFG)
DOSE_FOCUS = ProcessWindow.from_grid((0.96, 1.0, 1.04), (0.0, 40.0, 80.0))
DOSE_ABERRATION = ProcessWindow.from_grid(
    (0.97, 1.0, 1.03),
    focus_nm=(),
    aberrations=(None, {"Z4": 40.0, "Z5": 25.0}, {"Z7": 30.0}),
)


def _tiles(num_tiles: int) -> np.ndarray:
    return tile_stack(list(dataset_by_name("ICCAD13", num_clips=num_tiles)), CFG)


def _loss_and_grads(loss_fn, targets):
    tj = ad.Tensor(init_theta_source(SOURCE, CFG), requires_grad=True)
    tm = ad.Tensor(init_theta_mask(targets, CFG), requires_grad=True)
    loss = loss_fn(tj, tm)
    gj, gm = ad.grad(loss, [tj, tm])
    return float(loss.data), gj.data, gm.data


def _assert_match(got, want, loss_rtol, grad_rtol):
    np.testing.assert_allclose(got[0], want[0], rtol=loss_rtol)
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_allclose(g, w, rtol=grad_rtol, atol=1e-12)


class TestFusedVsComposed:
    @pytest.fixture(scope="class")
    def objectives(self):
        targets = _tiles(8)
        return (
            ProcessWindowSMOObjective(CFG, targets),
            ProcessWindowSMOObjective(CFG, targets, engine=ComposedAbbeImaging(CFG)),
        )

    def test_loss_and_gradients(self, objectives):
        fused, composed = objectives
        _assert_match(
            _loss_and_grads(fused.loss, fused.target.data),
            _loss_and_grads(composed.loss, composed.target.data),
            loss_rtol=1e-10,
            grad_rtol=1e-8,
        )

    def test_bismo_nmn_loss_trace(self, objectives):
        """Inner SO steps, exact HVPs and mixed products from each engine,
        outer Adam updates: the same two-iteration loss trace."""
        traces = [
            [
                rec.loss
                for rec in BiSMO(
                    CFG, obj.target.data, method="nmn", unroll_steps=2,
                    terms=3, objective=obj,
                ).run(SOURCE, iterations=2).history
            ]
            for obj in objectives
        ]
        np.testing.assert_allclose(traces[0], traces[1], rtol=1e-10)

    def test_peak_traced_memory_at_least_4x_lower(self, objectives):
        peaks = []
        for obj in objectives:
            _loss_and_grads(obj.loss, obj.target.data)  # warm the caches
            tracemalloc.start()
            try:
                _loss_and_grads(obj.loss, obj.target.data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        fused_peak, composed_peak = peaks
        assert composed_peak >= 4.0 * fused_peak, peaks


def _per_corner_engine_loss(window, targets):
    """One whole engine pass per corner (``aerial_conditions`` at the
    corner's condition alone), even where corners share a focus value."""
    engine = cache.abbe_engine(CFG)

    def loss_fn(tj, tm):
        source, mask = source_from_theta(tj, CFG), mask_from_theta(tm, CFG)
        losses = per_corner_losses(engine, CFG, mask, source, targets, window)
        return robust_corner_loss(losses, window)

    return loss_fn


def _per_corner_image_loss(window, targets, engine):
    """One ``incoherent_image`` per corner through the corner's own
    condition stack: its own mask FFT and kernel pass."""
    targets_t = ad.Tensor(targets)
    stacks = [engine.condition_stacks((c.aberrations,))[0] for c in window.corners]

    def loss_fn(tj, tm):
        source, mask = source_from_theta(tj, CFG), mask_from_theta(tm, CFG)
        jn = engine.normalized_weights(source)
        losses = []
        for corner, (stack, pairs) in zip(window.corners, stacks):
            aerial = F.incoherent_image(
                mask, stack, jn, conj_pairs=pairs, centres=engine.pupil_centres
            )
            z = dose_resist(aerial, CFG, corner.dose, corner.intensity_threshold)
            losses.append(F.sum(F.power(F.sub(z, targets_t), 2.0)))
        return robust_corner_loss(losses, window)

    return loss_fn


def test_dose_focus_window_matches_per_corner_loops():
    targets = _tiles(4)
    fused = _loss_and_grads(
        ProcessWindowSMOObjective(CFG, targets, DOSE_FOCUS).loss, targets
    )
    oracle = ProcessWindowSMOObjective(
        CFG, targets, DOSE_FOCUS, engine=FullGridAbbeImaging(CFG)
    )
    for reference in (
        _per_corner_engine_loss(DOSE_FOCUS, targets),
        per_condition_loss(oracle),
    ):
        _assert_match(
            fused, _loss_and_grads(reference, targets), loss_rtol=1e-10, grad_rtol=1e-8
        )


def test_dose_aberration_window_matches_per_corner_and_composed():
    targets = _tiles(4)
    objective = ProcessWindowSMOObjective(CFG, targets, DOSE_ABERRATION)
    composed = ProcessWindowSMOObjective(
        CFG, targets, DOSE_ABERRATION, engine=ComposedAbbeImaging(CFG)
    )
    fused = _loss_and_grads(objective.loss, targets)
    for reference in (
        _per_corner_image_loss(DOSE_ABERRATION, targets, objective.engine),
        composed.loss,
    ):
        _assert_match(
            fused, _loss_and_grads(reference, targets), loss_rtol=1e-8, grad_rtol=1e-8
        )


def test_aerial_fast_matches_per_tile_loops():
    tiles = _tiles(8)
    engine = cache.abbe_engine(CFG)
    fast = engine.aerial_fast(tiles, SOURCE)
    for loop_engine in (engine, ComposedAbbeImaging(CFG)):
        with ad.no_grad():
            loop = np.stack(
                [
                    loop_engine.aerial(ad.Tensor(tile), ad.Tensor(SOURCE)).data
                    for tile in tiles
                ]
            )
        np.testing.assert_allclose(fast, loop, atol=1e-10)


def test_condition_fan_out_matches_serial_bitwise():
    targets = _tiles(2)
    objective = ProcessWindowSMOObjective(CFG, targets, DOSE_FOCUS)
    with fftlib.use(condition_workers=1):
        serial = _loss_and_grads(objective.loss, targets)
    with fftlib.use(condition_workers=3, budget=3):
        assert fftlib.effective_condition_workers(3) == 3
        fanned = _loss_and_grads(objective.loss, targets)
    for got, want in zip(fanned, serial):
        np.testing.assert_array_equal(got, want)
