"""Joint multi-clip solver tests: the one SMO objective on a clip stack
against the per-clip loop oracle for the bilevel and alternating
solvers, per-tile loss records, the FFT-free source-only HVP oracle,
and the unroll inner-optimizer guard."""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.optics import OpticalConfig
from repro.smo import (
    AMSMO,
    AbbeMO,
    BiSMO,
    HopkinsMO,
    HopkinsMOObjective,
    HypergradientContext,
    ProcessWindowSMOObjective,
    SourceOptimizer,
    init_theta_mask,
    init_theta_source,
)
from repro.baselines import MultiLevelILT, NILTBaseline
from tests.oracles import (
    ComposedAbbeImaging,
    LoopedSMOObjective,
    composed_context,
    run_composed,
)


@pytest.fixture(scope="module")
def targets(tiny_target) -> np.ndarray:
    """B=3 clip stack: the base tile plus two distinct variants."""
    return np.stack(
        [tiny_target, tiny_target.T, np.roll(tiny_target, 3, axis=0)]
    )


@pytest.fixture(scope="module")
def cfg(tiny_config) -> OpticalConfig:
    return tiny_config


class TestBatchedLoopedEquivalence:
    """The one objective on a stack must reproduce the per-clip loop."""

    @pytest.mark.parametrize("method", ["nmn", "fd", "cg"])
    def test_bismo_matches_per_clip_loop(self, method, cfg, targets, tiny_source):
        results = {}
        for name, objective, run in (
            ("batched", ProcessWindowSMOObjective(cfg, targets), BiSMO.run),
            (
                "looped",
                LoopedSMOObjective(cfg, targets, ComposedAbbeImaging(cfg)),
                run_composed,
            ),
        ):
            solver = BiSMO(
                cfg,
                targets,
                method=method,
                unroll_steps=2,
                terms=3,
                damping=1.0 if method == "cg" else 0.0,
                objective=objective,
            )
            results[name] = run(solver, tiny_source, iterations=4)
        b, l = results["batched"], results["looped"]
        np.testing.assert_allclose(
            b.final_tile_losses, l.final_tile_losses, rtol=1e-10
        )
        np.testing.assert_allclose(b.theta_m, l.theta_m, atol=1e-10)
        np.testing.assert_allclose(b.theta_j, l.theta_j, atol=1e-10)

    def test_amsmo_matches_per_clip_loop(self, cfg, targets, tiny_source):
        results = {}
        for name, obj_cls in (
            ("batched", ProcessWindowSMOObjective),
            ("looped", LoopedSMOObjective),
        ):
            solver = AMSMO(
                cfg,
                targets,
                rounds=2,
                so_steps=2,
                mo_steps=3,
                objective=obj_cls(cfg, targets),
            )
            results[name] = solver.run(tiny_source)
        b, l = results["batched"], results["looped"]
        np.testing.assert_allclose(
            b.final_tile_losses, l.final_tile_losses, rtol=1e-10
        )
        np.testing.assert_allclose(b.theta_m, l.theta_m, atol=1e-10)

    def test_batched_loss_equals_looped_loss(self, cfg, targets, tiny_source):
        """Loss, per-tile losses and both gradients of the stack match
        the per-tile loop oracle within 1e-10."""
        rng = np.random.default_rng(5)
        tj = init_theta_source(tiny_source, cfg)
        tj = tj + 0.05 * rng.standard_normal(tj.shape)
        tm = np.stack([init_theta_mask(t, cfg) for t in targets])
        tm = tm + 0.3 * rng.standard_normal(tm.shape)
        out = []
        for objective in (
            ProcessWindowSMOObjective(cfg, targets),
            LoopedSMOObjective(cfg, targets),
        ):
            a = ad.Tensor(tj, requires_grad=True)
            b = ad.Tensor(tm, requires_grad=True)
            loss = objective.loss(a, b)
            gj, gm = ad.grad(loss, [a, b])
            tiles = objective.last_tile_losses
            out.append((loss.item(), tiles, gj.data, gm.data))
        (lb, tb, *grads_b), (ll, tl, *grads_l) = out
        assert lb == pytest.approx(ll, rel=1e-12)
        np.testing.assert_allclose(tb, tl, rtol=1e-10)
        for gb, gl in zip(grads_b, grads_l):
            scale = np.abs(gl).max()
            np.testing.assert_allclose(gb, gl, rtol=1e-10, atol=1e-10 * scale)


class TestPerTileRecords:
    def test_bismo_records_tile_losses(self, cfg, targets, tiny_source):
        res = BiSMO(
            cfg, targets, method="nmn", unroll_steps=1, terms=2
        ).run(tiny_source, iterations=3)
        assert res.num_tiles == len(targets)
        matrix = res.tile_loss_matrix()
        assert matrix.shape == (3, len(targets))
        # per-tile losses sum to the recorded total loss
        for rec in res.history:
            assert rec.tile_losses.sum() == pytest.approx(rec.loss, rel=1e-9)
        np.testing.assert_array_equal(res.final_tile_losses, matrix[-1])

    def test_single_tile_records_no_tile_losses(self, cfg, tiny_target, tiny_source):
        res = BiSMO(
            cfg, tiny_target, method="fd", unroll_steps=1
        ).run(tiny_source, iterations=2)
        assert res.num_tiles == 1
        assert all(r.tile_losses is None for r in res.history)
        with pytest.raises(ValueError):
            res.tile_loss_matrix()
        with pytest.raises(ValueError):
            _ = res.final_tile_losses

    def test_amsmo_phases_record_tile_losses(self, cfg, targets, tiny_source):
        res = AMSMO(cfg, targets, rounds=1, so_steps=2, mo_steps=2).run(
            tiny_source
        )
        assert all(r.tile_losses is not None for r in res.history)
        assert {r.phase for r in res.history} == {"so", "mo"}

    def test_amsmo_hopkins_joint(self, cfg, targets, tiny_source):
        res = AMSMO(
            cfg,
            targets,
            mode="abbe-hopkins",
            rounds=1,
            so_steps=1,
            mo_steps=2,
            num_kernels=8,
        ).run(tiny_source)
        assert res.theta_m.shape == targets.shape
        assert res.history[-1].tile_losses.shape == (len(targets),)

    @pytest.mark.parametrize(
        "make",
        [
            lambda cfg, t, s: AbbeMO(cfg, t, s),
            lambda cfg, t, s: HopkinsMO(cfg, t, s, num_kernels=8),
            lambda cfg, t, s: NILTBaseline(cfg, t, s, num_kernels=8),
            lambda cfg, t, s: MultiLevelILT(cfg, t, s, num_kernels=8),
        ],
    )
    def test_mo_solvers_accept_clip_stacks(self, make, cfg, targets, tiny_source):
        res = make(cfg, targets, tiny_source).run(iterations=2)
        assert res.theta_m.shape == targets.shape
        assert res.num_tiles == len(targets)
        assert res.final_tile_losses.shape == (len(targets),)
        assert np.isfinite(res.final_tile_losses).all()

    def test_source_optimizer_joint(self, cfg, targets, tiny_source):
        so = SourceOptimizer(cfg, targets)
        tm = np.stack([init_theta_mask(t, cfg) for t in targets])
        res = so.run(tm, init_theta_source(tiny_source, cfg), iterations=2)
        assert res.history[-1].tile_losses.shape == (len(targets),)


class TestSourceOnlyOracle:
    """The FFT-free source-only closure must be exactly the loss as a
    function of theta_J at fixed theta_M."""

    def test_closure_matches_full_loss(self, cfg, targets, tiny_source):
        objective = ProcessWindowSMOObjective(cfg, targets)
        tj = init_theta_source(tiny_source, cfg)
        tm = np.stack([init_theta_mask(t, cfg) for t in targets]) + 0.1
        closure = objective.source_only_loss(tm)
        with ad.no_grad():
            full = objective.loss(ad.Tensor(tj), ad.Tensor(tm)).item()
            fast = closure(ad.Tensor(tj)).item()
        assert fast == pytest.approx(full, rel=1e-12)

    def test_oracle_hvp_matches_full_graph(self, cfg, targets, tiny_source):
        rng = np.random.default_rng(7)
        tj = init_theta_source(tiny_source, cfg) + 0.01 * rng.standard_normal(
            (cfg.source_size,) * 2
        )
        tm = np.stack([init_theta_mask(t, cfg) for t in targets])
        ctx_fast = HypergradientContext(
            ProcessWindowSMOObjective(cfg, targets).source_only_loss(tm), tj
        )
        looped = LoopedSMOObjective(cfg, targets, ComposedAbbeImaging(cfg))
        ctx_full = composed_context(looped, tj, tm)
        assert ctx_fast.basis is not None
        assert ctx_full.basis is None
        p = rng.standard_normal(tj.shape)
        hv_fast, hv_full = ctx_fast.hvp(p), ctx_full.hvp(p)
        np.testing.assert_allclose(hv_fast, hv_full, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            ctx_fast.grad_j, ctx_full.grad_j, rtol=1e-9, atol=1e-12
        )

    def test_hopkins_objective_has_no_oracle(self, cfg, targets, tiny_source):
        hop = HopkinsMOObjective(cfg, targets, tiny_source, num_kernels=8)
        assert not hasattr(hop, "source_only_loss")


class TestHopkinsBatchedObjective:
    def test_batched_loss_and_tile_losses(self, cfg, targets, tiny_source):
        hop = HopkinsMOObjective(cfg, targets, tiny_source, num_kernels=8)
        assert hop.num_tiles == len(targets)
        tm = np.stack([init_theta_mask(t, cfg) for t in targets])
        with ad.no_grad():
            total = hop.loss(ad.Tensor(tm)).item()
        assert hop.last_tile_losses.sum() == pytest.approx(total, rel=1e-9)
        # The per-tile split is loss()'s own: each tile alone gives its
        # entry (the default window, gamma * L2 + eta * L_pvb).
        for i, t in enumerate(targets):
            single = HopkinsMOObjective(cfg, t, tiny_source, num_kernels=8)
            with ad.no_grad():
                alone = single.loss(ad.Tensor(tm[i])).item()
            assert hop.last_tile_losses[i] == pytest.approx(alone, rel=1e-9)
        assert hop.last_corner_losses.shape == (3, len(targets))

    def test_shape_validation(self, cfg, targets):
        hop_single = HopkinsMOObjective(
            cfg, targets[0], np.ones((cfg.source_size,) * 2), num_kernels=4
        )
        with pytest.raises(ValueError, match="theta_m must be"):
            with ad.no_grad():
                hop_single.loss(ad.Tensor(init_theta_mask(targets, cfg)))
        hop = HopkinsMOObjective(
            cfg, targets, np.ones((cfg.source_size,) * 2), num_kernels=4
        )
        with pytest.raises(ValueError):
            with ad.no_grad():
                hop.loss(ad.Tensor(init_theta_mask(targets[0], cfg)))
        with pytest.raises(ValueError):
            HopkinsMOObjective(
                cfg,
                np.zeros((4,)),
                np.ones((cfg.source_size,) * 2),
            )


class TestUnrollInnerOptimizerGuard:
    def test_bismo_unroll_rejects_stateful_inner_optimizer(self, cfg, tiny_target):
        with pytest.raises(ValueError, match="inner_optimizer"):
            BiSMO(cfg, tiny_target, method="unroll", inner_optimizer="adam")

    def test_unrolled_hypergradient_rejects_non_sgd(self, cfg, tiny_target):
        """The unroll strategy sees no optimizer: BiSMO's guard is the
        only one, and it names the one inner update it supports."""
        for name in ("adam", "Adam"):
            with pytest.raises(ValueError, match="'sgd'"):
                BiSMO(cfg, tiny_target, method="UNROLL", inner_optimizer=name)
        BiSMO(cfg, tiny_target, method="unroll", inner_optimizer="SGD")

    def test_unroll_with_sgd_still_runs(self, cfg, tiny_target, tiny_source):
        res = BiSMO(
            cfg, tiny_target, method="unroll", unroll_steps=1, inner_optimizer="sgd"
        ).run(tiny_source, iterations=2)
        assert np.isfinite(res.losses).all()

    def test_unroll_joint_records_tile_losses(self, cfg, targets, tiny_source):
        res = BiSMO(cfg, targets, method="unroll", unroll_steps=1).run(
            tiny_source, iterations=2
        )
        assert res.history[-1].tile_losses.shape == (len(targets),)
