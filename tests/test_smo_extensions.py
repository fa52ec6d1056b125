"""Tests for the SMO extensions: unrolled hypergradients, stoppers,
LR schedules, defocus imaging."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.opt import Adam, ConstantLR, CosineLR, SGD, StepLR, apply_schedule
from repro.optics import AbbeImaging, OpticalConfig
from repro.smo import (
    BiSMO,
    GradientNormStopper,
    PlateauStopper,
    ProcessWindowSMOObjective,
    RelativeImprovementStopper,
    init_theta_mask,
    init_theta_source,
    unrolled_hypergradient,
)
from tests.test_smo_bilevel_math import QuadraticObjective


class TestUnrolledHypergradient:
    def test_quadratic_unroll_matches_manual(self):
        """One unrolled SGD step on the quadratic toy has the closed form
        hyper = gm(j', m) + d j'/dm ^T gj(j', m) with
        j' = j - xi (A j + B m)  and  d j'/dm = -xi B."""
        toy = QuadraticObjective(n=3, seed=5)
        rng = np.random.default_rng(11)
        j, m = rng.standard_normal(3), rng.standard_normal(3)
        xi = 0.05
        hyper, j_new, loss = unrolled_hypergradient(toy, j, m, steps=1, inner_lr=xi)
        j_prime = j - xi * (toy.a @ j + toy.b @ m)
        np.testing.assert_allclose(j_new, j_prime, atol=1e-12)
        gm = toy.b.T @ j_prime + toy.c @ m + toy.d
        gj = toy.a @ j_prime + toy.b @ m
        expected = gm - xi * toy.b.T @ gj
        np.testing.assert_allclose(hyper, expected, atol=1e-10)

    def test_zero_steps_rejected(self):
        toy = QuadraticObjective(n=2)
        with pytest.raises(ValueError):
            unrolled_hypergradient(toy, np.zeros(2), np.zeros(2), 0, 0.1)

    def test_bismo_unroll_variant_decreases_loss(
        self, tiny_config, tiny_target, tiny_source
    ):
        objective = ProcessWindowSMOObjective(tiny_config, tiny_target)
        solver = BiSMO(
            tiny_config, tiny_target, method="unroll", unroll_steps=2,
            objective=objective,
        )
        res = solver.run(tiny_source, iterations=10)
        assert res.method == "BiSMO-UNROLL"
        assert res.final_loss < res.losses[0]

    def test_unroll_in_method_error_message(self, tiny_config, tiny_target):
        with pytest.raises(KeyError, match="unroll"):
            BiSMO(tiny_config, tiny_target, method="bogus")


class TestStoppers:
    def test_plateau_stops_after_patience(self):
        stop = PlateauStopper(patience=3)
        assert not stop.update(10.0)
        assert not stop.update(10.0)
        assert not stop.update(10.0)
        assert stop.update(10.0)

    def test_plateau_resets_on_improvement(self):
        stop = PlateauStopper(patience=2)
        stop.update(10.0)
        stop.update(10.0)
        assert not stop.update(5.0)  # improvement resets
        assert not stop.update(5.0)
        assert stop.update(5.0)

    def test_plateau_min_delta(self):
        stop = PlateauStopper(patience=1, min_delta=1.0)
        stop.update(10.0)
        assert stop.update(9.5)  # improvement below min_delta doesn't count

    def test_plateau_reset(self):
        stop = PlateauStopper(patience=1)
        stop.update(1.0)
        stop.update(1.0)
        stop.reset()
        assert not stop.update(1.0)

    def test_plateau_validation(self):
        with pytest.raises(ValueError):
            PlateauStopper(patience=0)

    def test_relative_improvement(self):
        stop = RelativeImprovementStopper(rtol=0.01, patience=2)
        assert not stop.update(100.0)
        assert not stop.update(50.0)  # 50% improvement
        assert not stop.update(49.9)  # 0.2% — slow strike 1
        assert stop.update(49.9)  # slow strike 2 -> stop

    def test_relative_improvement_fires_at_exact_zero(self):
        """A run that bottoms out at loss == 0 must still stop: a zero
        previous loss counts as plateau progress, not a skipped test."""
        stop = RelativeImprovementStopper(rtol=0.01, patience=2)
        assert not stop.update(1.0)
        assert not stop.update(0.0)  # huge improvement -> not slow
        assert not stop.update(0.0)  # zero prev: plateau strike 1
        assert stop.update(0.0)  # plateau strike 2 -> stop

    def test_relative_improvement_negative_prev_counts_as_plateau(self):
        stop = RelativeImprovementStopper(rtol=0.01, patience=1)
        stop.update(-5.0)
        assert stop.update(-5.0)

    def test_relative_improvement_reset_clears_zero_state(self):
        stop = RelativeImprovementStopper(rtol=0.01, patience=1)
        stop.update(0.0)
        stop.reset()
        assert not stop.update(0.0)  # first update never stops

    def test_gradient_norm(self):
        stop = GradientNormStopper(threshold=0.1)
        assert not stop.update(np.array([1.0, 1.0]))
        assert stop.update(np.array([0.01, 0.01]))
        assert stop.last_norm == pytest.approx(np.hypot(0.01, 0.01))

    def test_gradient_norm_validation(self):
        with pytest.raises(ValueError):
            GradientNormStopper(0.0)


class TestLRSchedules:
    def test_constant(self):
        s = ConstantLR(0.1)
        assert s(0) == s(100) == 0.1

    def test_step_decay(self):
        s = StepLR(1.0, period=10, gamma=0.5)
        assert s(0) == 1.0
        assert s(9) == 1.0
        assert s(10) == 0.5
        assert s(20) == 0.25

    def test_cosine_endpoints(self):
        s = CosineLR(1.0, total=100, floor=0.1)
        assert s(0) == pytest.approx(1.0)
        assert s(100) == pytest.approx(0.1)
        assert s(200) == pytest.approx(0.1)  # clamped past total
        assert s(50) == pytest.approx(0.55)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)
        with pytest.raises(ValueError):
            StepLR(1.0, period=0)
        with pytest.raises(ValueError):
            CosineLR(1.0, total=10, floor=2.0)

    def test_apply_schedule_mutates_optimizer(self):
        opt = SGD(1.0)
        lr = apply_schedule(opt, CosineLR(1.0, total=10, floor=0.05), step=10)
        assert opt.lr == lr == pytest.approx(0.05)
        opt2 = Adam(1.0)
        apply_schedule(opt2, StepLR(1.0, 5, 0.5), step=5)
        assert opt2.lr == 0.5

    def test_apply_schedule_rejects_zero_lr(self):
        opt = SGD(1.0)
        with pytest.raises(ValueError):
            apply_schedule(opt, CosineLR(1.0, total=10, floor=0.0), step=10)


class TestDefocusImaging:
    def test_zero_defocus_matches_baseline(self, tiny_config, tiny_target, tiny_source):
        base = AbbeImaging(tiny_config)
        zero = AbbeImaging(tiny_config, defocus_nm=0.0)
        with ad.no_grad():
            i0 = base.aerial(ad.Tensor(tiny_target), ad.Tensor(tiny_source)).data
            i1 = zero.aerial(ad.Tensor(tiny_target), ad.Tensor(tiny_source)).data
        np.testing.assert_allclose(i0, i1)

    def test_defocus_symmetric_in_sign(self, tiny_config, tiny_target, tiny_source):
        """+z and -z defocus give the same intensity for a real mask and
        this symmetric (aberration-free) pupil."""
        plus = AbbeImaging(tiny_config, defocus_nm=100.0)
        minus = AbbeImaging(tiny_config, defocus_nm=-100.0)
        with ad.no_grad():
            ip = plus.aerial(ad.Tensor(tiny_target), ad.Tensor(tiny_source)).data
            im = minus.aerial(ad.Tensor(tiny_target), ad.Tensor(tiny_source)).data
        np.testing.assert_allclose(ip, im, atol=1e-10)

    def test_defocus_gradients_still_flow(self, tiny_config, tiny_target, tiny_source):
        engine = AbbeImaging(tiny_config, defocus_nm=80.0)
        m = ad.Tensor(tiny_target, requires_grad=True)
        s = ad.Tensor(tiny_source + 0.05, requires_grad=True)
        from repro.autodiff import functional as F

        gm, gs = ad.grad(F.sum(engine.aerial(m, s)), [m, s])
        assert np.all(np.isfinite(gm.data))
        assert np.all(np.isfinite(gs.data))

    def test_defocus_preserves_energy_of_clear_field(self, tiny_config, tiny_source):
        """Defocus is a pure phase factor: the DC (clear-field) response
        is unchanged."""
        engine = AbbeImaging(tiny_config, defocus_nm=120.0)
        assert engine.clear_field_intensity(tiny_source) == pytest.approx(1.0, abs=1e-6)


class TestGLPDatasetLoader:
    def test_roundtrip_directory(self, tmp_path):
        from repro.geometry import Rect
        from repro.layouts import dataset_from_glp_dir, write_glp

        write_glp(tmp_path / "a.glp", "clip_a", {"M1": [Rect(0, 0, 100, 50)]})
        write_glp(
            tmp_path / "b.glp",
            "clip_b",
            {"M1": [Rect(0, 0, 60, 60)], "VIA": [Rect(10, 10, 40, 40)]},
        )
        ds = dataset_from_glp_dir(tmp_path, "REAL", cd_nm=32, tile_nm=2000)
        assert len(ds) == 2
        assert ds[0].name == "clip_a"
        assert len(ds[1].rects) == 2  # layers merged

    def test_empty_dir_raises(self, tmp_path):
        from repro.layouts import dataset_from_glp_dir

        with pytest.raises(FileNotFoundError):
            dataset_from_glp_dir(tmp_path, "X", cd_nm=32)
