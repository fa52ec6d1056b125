"""Band-limited Abbe imaging against the full-grid oracle.

Every field runs on its K x K pupil crop (K = 14 of 32 at ``tiny``, the
whole 64-point grid at ``small``, 56 of 128 at ``default``) and the
weighted intensity is resampled to N once per tile.  The oracle is the
same engine on whole-grid ``(S, N, N)`` pupils
(:class:`tests.oracles.FullGridAbbeImaging`): every product here — the
forward, the mask and source-weight gradients, the intensity basis,
BiSMO's HVPs and mixed products — must agree with it to 1e-12 relative,
on paired and aberrated (unpaired) stacks, one condition or several,
real and complex masks.  At ``small`` the crop is the whole grid, so
the cropped engine runs the oracle's arithmetic bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import AbbeImaging, OpticalConfig, ProcessWindow, fftlib
from repro.smo import ProcessWindowSMOObjective, init_theta_mask, init_theta_source
from repro.smo.bismo import HypergradientContext
from repro.utils import faultinject as fi
from tests.oracles import FullGridAbbeImaging, expand_kernels

PRESETS = ("tiny", "small", "default")
CONDITIONS = (0.0, {"Z4": 60.0}, {"Z7": 20.0})
RTOL = 1e-12


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.fixture(scope="module", params=PRESETS)
def engines(request):
    cfg = OpticalConfig.preset(request.param)
    return cfg, AbbeImaging(cfg), FullGridAbbeImaging(cfg)


def _forward_and_grads(engine, mask, source, conditions, upstream):
    mt = ad.Tensor(mask, requires_grad=True)
    st = ad.Tensor(source, requires_grad=True)
    out = engine.aerial_conditions(mt, st, conditions)
    gm, gs = ad.grad(F.sum(F.mul(out, ad.Tensor(upstream))), [mt, st])
    return out.data, gm.data, gs.data


class TestImagingParity:
    @pytest.mark.parametrize("complex_mask", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "conditions", [(0.0,), CONDITIONS], ids=["one", "several"]
    )
    def test_forward_and_gradients(self, engines, complex_mask, conditions):
        cfg, cropped, oracle = engines
        n = cfg.mask_size
        rng = np.random.default_rng(1)
        mask = rng.random((2, n, n))
        if complex_mask:
            mask = mask + 1j * rng.random((2, n, n))
        source = rng.random((cfg.source_size,) * 2)
        upstream = rng.standard_normal((len(conditions), 2, n, n))
        got = _forward_and_grads(cropped, mask, source, conditions, upstream)
        ref = _forward_and_grads(oracle, mask, source, conditions, upstream)
        for a, b in zip(got, ref):
            assert _rel(a, b) <= RTOL

    def test_whole_grid_crop_runs_the_oracle_arithmetic(self):
        """At ``small`` K == N: no window copy, no resample — bitwise."""
        cfg = OpticalConfig.preset("small")
        cropped, oracle = AbbeImaging(cfg), FullGridAbbeImaging(cfg)
        assert cropped._pupil_stack.shape[-1] == cfg.mask_size
        rng = np.random.default_rng(2)
        mask = rng.random((2, cfg.mask_size, cfg.mask_size))
        source = rng.random((cfg.source_size,) * 2)
        upstream = rng.standard_normal((3, 2, cfg.mask_size, cfg.mask_size))
        got = _forward_and_grads(cropped, mask, source, CONDITIONS, upstream)
        ref = _forward_and_grads(oracle, mask, source, CONDITIONS, upstream)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("paired", [True, False], ids=["paired", "unpaired"])
    def test_weight_gradient_and_mask_adjoint(self, engines, paired):
        """The primitive's own weight gradient, and the two-term mask
        adjoint BiSMO's mixed product takes, on the nominal stack with
        and without its +/-sigma pairing."""
        cfg, cropped, oracle = engines
        n = cfg.mask_size
        rng = np.random.default_rng(3)
        mask = rng.random((2, n, n))
        s = cropped.num_source_points
        terms = [
            (rng.random(s), rng.standard_normal((1, 2, n, n))),
            (rng.standard_normal(s), rng.standard_normal((1, 2, n, n))),
        ]
        results = []
        for engine in (cropped, oracle):
            (stack, cp), = engine.condition_stacks((0.0,))
            assert cp is not None
            cp = cp if paired else None
            w = ad.Tensor(terms[0][0], requires_grad=True)
            out = F.incoherent_image(
                mask, stack, w, conj_pairs=cp, centres=engine.pupil_centres
            )
            (gw,) = ad.grad(F.sum(F.mul(out, ad.Tensor(terms[0][1][0]))), [w])
            adj = F.incoherent_mask_adjoint(
                mask, [stack], terms, [cp], centres=engine.pupil_centres
            )
            results.append((out.data, gw.data, adj))
        for a, b in zip(*results):
            assert _rel(a, b) <= RTOL

    def test_intensity_basis_combines_and_contracts_alike(self, engines):
        """The ``(B, R, K, K)`` basis combines to the fused image and
        contracts to the oracle's weight gradient, paired (R ~ S/2) and
        aberrated (R = S)."""
        cfg, cropped, oracle = engines
        n = cfg.mask_size
        rng = np.random.default_rng(4)
        mask = rng.random((2, n, n))
        g = rng.standard_normal((2, n, n))
        source = rng.random((cfg.source_size,) * 2)
        w = cropped.normalized_weights(ad.Tensor(source)).data
        for condition in (0.0, {"Z4": 60.0}):
            out = []
            for engine in (cropped, oracle):
                (stack, cp), = engine.condition_stacks((condition,))
                basis = engine.source_intensity_basis(mask, stack.data, cp)
                rows = engine.num_source_points
                if cp is not None:
                    rows = int(np.count_nonzero(cp >= np.arange(cp.size)))
                assert basis.shape == (2, rows) + stack.shape[1:]
                out.append(
                    (
                        F.basis_combine(basis, w, cp, n).data,
                        F.basis_contract(basis, g, cp).data,
                    )
                )
            for a, b in zip(*out):
                assert _rel(a, b) <= RTOL
            fused = cropped.aerial_conditions_fast(mask, source, (condition,))[0]
            assert _rel(out[0][0], fused) <= RTOL


class TestOracleParity:
    """BiSMO's loss, direct gradients, HVPs and mixed products."""

    @pytest.mark.parametrize("window", ["paper", "pwindow"])
    def test_hypergradient_context(self, engines, window):
        cfg, cropped, oracle = engines
        n = cfg.mask_size
        rng = np.random.default_rng(5)
        targets = (rng.random((2, n, n)) > 0.6).astype(np.float64)
        pw = (
            None
            if window == "paper"
            else ProcessWindow.from_grid((0.98, 1.0, 1.02), (0.0, 60.0))
        )
        source = rng.random((cfg.source_size,) * 2) + 0.2
        theta_j = init_theta_source(source, cfg)
        theta_m = init_theta_mask(targets, cfg) + 0.3 * rng.standard_normal(
            targets.shape
        )
        p = rng.standard_normal(theta_j.shape)
        out = []
        for engine in (cropped, oracle):
            objective = ProcessWindowSMOObjective(cfg, targets, pw, engine=engine)
            basis = objective.source_only_loss(theta_m)
            ctx = HypergradientContext(basis, theta_j)
            out.append(
                (
                    ctx.loss_value,
                    ctx.grad_j,
                    ctx.grad_m,
                    ctx.hvp(p),
                    ctx.mixed_vjp(p),
                )
            )
        for a, b in zip(*out):
            assert _rel(a, b) <= RTOL


class TestStreamingContracts:
    def _evaluate(self, engine, mask, source, chunk=None):
        stacks = [st for st, _ in engine.condition_stacks(CONDITIONS)]
        pairs = [cp for _, cp in engine.condition_stacks(CONDITIONS)]
        w = ad.Tensor(
            engine.normalized_weights(ad.Tensor(source)).data, requires_grad=True
        )
        mt = ad.Tensor(mask, requires_grad=True)
        out = F.incoherent_image_stack(
            mt, stacks, w, chunk=chunk, conj_pairs=pairs,
            centres=engine.pupil_centres,
        )
        gm, gw = ad.grad(F.sum(F.power(out, 2.0)), [mt, w])
        return out.data, gm.data, gw.data

    @pytest.fixture(scope="class")
    def default_case(self):
        cfg = OpticalConfig.preset("default")
        rng = np.random.default_rng(6)
        return (
            AbbeImaging(cfg),
            rng.random((2, cfg.mask_size, cfg.mask_size)),
            rng.random((cfg.source_size,) * 2),
        )

    def test_worker_count_is_bitwise_invisible(self, default_case):
        engine, mask, source = default_case
        with fftlib.use(condition_workers=1):
            serial = self._evaluate(engine, mask, source)
        with fftlib.use(condition_workers=3, budget=3):
            fanned = self._evaluate(engine, mask, source)
        for a, b in zip(serial, fanned):
            np.testing.assert_array_equal(a, b)

    def test_chunk_invariance(self, default_case):
        engine, mask, source = default_case
        ref = self._evaluate(engine, mask, source, chunk=engine.num_source_points)
        for chunk in (1, 7):
            for a, b in zip(self._evaluate(engine, mask, source, chunk), ref):
                assert _rel(a, b) <= 1e-13

    def test_memory_error_halves_the_chunk(self, default_case):
        """An injected MemoryError in the first streamed attempt of the
        cropped forward and VJP retries at half the chunk, with the
        same result to rounding."""
        engine, mask, source = default_case
        ref = self._evaluate(engine, mask, source, chunk=16)
        fi.install_plan("fftlib.stream_chunk@1=raise:MemoryError")
        try:
            got = self._evaluate(engine, mask, source, chunk=16)
        finally:
            fi.clear_plan()
        for a, b in zip(got, ref):
            assert _rel(a, b) <= 1e-13


def test_crops_need_valid_centres(tiny_config):
    """Crops without centres, with misshapen or off-grid centres, and
    whole-grid kernels with nonzero centres are refused."""
    engine = AbbeImaging(tiny_config)
    (stack, _), = engine.condition_stacks((0.0,))
    n = tiny_config.mask_size
    mask = np.ones((n, n))
    w = np.ones(stack.shape[0])
    centres = engine.pupil_centres
    for bad in (None, centres[:-1], centres.astype(float), centres + n):
        with pytest.raises(ValueError):
            F.incoherent_image(mask, stack, w, centres=bad)
    whole = expand_kernels(stack.data, centres, n)
    with pytest.raises(ValueError):
        F.incoherent_image(mask, whole, w, centres=centres)
    np.testing.assert_allclose(
        F.incoherent_image(mask, whole, w).data,
        F.incoherent_image(mask, stack, w, centres=centres).data,
        atol=1e-12,
    )
