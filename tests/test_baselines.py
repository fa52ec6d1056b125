"""Tests for the NILT-style and DAC23-MILT-style comparators."""

import numpy as np
import pytest

from repro.baselines import MultiLevelILT, NILTBaseline
from repro.optics import OpticalConfig


class TestNILT:
    def test_decreases_loss(self, tiny_config, tiny_target, tiny_source):
        res = NILTBaseline(
            tiny_config, tiny_target, tiny_source, num_kernels=8
        ).run(iterations=10)
        assert res.final_loss < res.losses[0]
        assert res.method == "NILT"

    def test_objective_excludes_pvb(self, tiny_config, tiny_target, tiny_source):
        """NILT optimizes nominal printability only: its loss equals
        gamma * L2 with no eta term."""
        import repro.autodiff as ad
        from repro.smo import init_theta_mask
        from repro.smo.objective import dose_resist

        objective = NILTBaseline(
            tiny_config, tiny_target, tiny_source, num_kernels=8
        ).objective
        tm = ad.Tensor(init_theta_mask(tiny_target, tiny_config))
        with ad.no_grad():
            loss = objective.loss(tm).item()
            from repro.smo import mask_from_theta

            mask = mask_from_theta(tm, tiny_config)
            aerial = objective.engine.aerial(mask)
            z = dose_resist(aerial, tiny_config, 1.0).data
        expected = tiny_config.gamma * ((z - tiny_target) ** 2).sum()
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_custom_theta0(self, tiny_config, tiny_target, tiny_source):
        theta0 = np.zeros_like(tiny_target)
        res = NILTBaseline(
            tiny_config, tiny_target, tiny_source, num_kernels=4
        ).run(iterations=2, theta_m0=theta0)
        assert res.theta_m.shape == theta0.shape


class TestMILT:
    def test_decreases_loss_within_final_level(
        self, tiny_config, tiny_target, tiny_source
    ):
        # Loss traces from different levels use a pixel-count rescale and
        # are not comparable across the level switch; check monotone
        # improvement within the native-resolution level.
        res = MultiLevelILT(
            tiny_config, tiny_target, tiny_source, levels=2, num_kernels=8
        ).run(iterations=10)
        n_levels = 2
        first_fine = 10 // n_levels  # per-level split in run()
        assert res.final_loss < res.losses[first_fine]
        assert res.method == "DAC23-MILT"

    def test_final_theta_at_native_resolution(self, tiny_config, tiny_target, tiny_source):
        res = MultiLevelILT(
            tiny_config, tiny_target, tiny_source, levels=2, num_kernels=8
        ).run(iterations=6)
        assert res.theta_m.shape == tiny_target.shape

    def test_undersampled_levels_dropped(self, tiny_target, tiny_source):
        """Asking for more levels than Nyquist allows silently clamps."""
        cfg = OpticalConfig.preset("tiny")  # 32px/500nm; 8px level invalid
        solver = MultiLevelILT(cfg, tiny_target, tiny_source, levels=4, num_kernels=4)
        sizes = [c.mask_size for c in solver.level_configs]
        assert sizes[-1] == cfg.mask_size
        for c in solver.level_configs:
            c.validate_sampling()

    def test_iterations_distributed_across_levels(
        self, tiny_config, tiny_target, tiny_source
    ):
        res = MultiLevelILT(
            tiny_config, tiny_target, tiny_source, levels=2, num_kernels=4
        ).run(iterations=9)
        assert len(res.history) == 9

    def test_upsample_helper(self):
        theta = np.array([[1.0, 2.0], [3.0, 4.0]])
        up = MultiLevelILT._upsample_theta(theta, 2)
        assert up.shape == (4, 4)
        assert up[0, 0] == up[1, 1] == 1.0
        assert up[2, 2] == 4.0

    def test_downsample_target_binary(self):
        tgt = np.zeros((8, 8))
        tgt[:4, :4] = 1.0
        down = MultiLevelILT._downsample_target(tgt, 4)
        assert set(np.unique(down)) <= {0.0, 1.0}
        assert down[0, 0] == 1.0 and down[3, 3] == 0.0
