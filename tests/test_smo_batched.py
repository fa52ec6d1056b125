"""Tests for the SMO objective on a ``(B, N, N)`` tile stack and the
batched layout plumbing (layouts.tile_stack, harness.batched_objective)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.harness import RunSettings, batched_objective
from repro.layouts import dataset_by_name, tile_stack
from repro.optics import OpticalConfig
from repro.smo import (
    ProcessWindowSMOObjective,
    init_theta_mask,
    init_theta_source,
)


@pytest.fixture(scope="module")
def cfg() -> OpticalConfig:
    return OpticalConfig.preset("tiny")


@pytest.fixture(scope="module")
def targets(cfg, tiny_target) -> np.ndarray:
    return np.stack([tiny_target, tiny_target.T, np.roll(tiny_target, 3, axis=0)])


@pytest.fixture(scope="module")
def thetas(cfg, targets, tiny_source):
    tj = init_theta_source(tiny_source, cfg)
    tm = np.stack([init_theta_mask(t, cfg) for t in targets])
    return tj, tm


class TestBatchedObjective:
    def test_loss_equals_sum_of_per_tile_losses(self, cfg, targets, thetas):
        tj, tm = thetas
        batched = ProcessWindowSMOObjective(cfg, targets)
        with ad.no_grad():
            total = batched.loss(ad.Tensor(tj), ad.Tensor(tm)).item()
            per_tile = sum(
                ProcessWindowSMOObjective(cfg, t)
                .loss(ad.Tensor(tj), ad.Tensor(m))
                .item()
                for t, m in zip(targets, tm)
            )
        assert total == pytest.approx(per_tile, rel=1e-10)

    def test_gradients_match_per_tile(self, cfg, targets, thetas):
        """One batched graph == B per-tile graphs, for both parameters."""
        tj, tm = thetas
        batched = ProcessWindowSMOObjective(cfg, targets)
        a = ad.Tensor(tj, requires_grad=True)
        b = ad.Tensor(tm, requires_grad=True)
        gj, gm = ad.grad(batched.loss(a, b), [a, b])
        gj_sum = np.zeros_like(tj)
        for i, (t, m) in enumerate(zip(targets, tm)):
            ai = ad.Tensor(tj, requires_grad=True)
            bi = ad.Tensor(m, requires_grad=True)
            single = ProcessWindowSMOObjective(cfg, t)
            gji, gmi = ad.grad(single.loss(ai, bi), [ai, bi])
            np.testing.assert_allclose(gm.data[i], gmi.data, atol=1e-6)
            gj_sum += gji.data
        np.testing.assert_allclose(gj.data, gj_sum, atol=1e-6)

    def test_tile_losses_vector(self, cfg, targets, thetas):
        """``loss()`` stashes its own per-tile split; a single tile
        stashes none."""
        tj, tm = thetas
        batched = ProcessWindowSMOObjective(cfg, targets)
        with ad.no_grad():
            total = batched.loss(ad.Tensor(tj), ad.Tensor(tm)).item()
        per_tile = batched.last_tile_losses
        assert per_tile.shape == (len(targets),)
        assert per_tile.sum() == pytest.approx(total, rel=1e-9)
        single = ProcessWindowSMOObjective(cfg, targets[1])
        with ad.no_grad():
            alone = single.loss(ad.Tensor(tj), ad.Tensor(tm[1])).item()
        assert per_tile[1] == pytest.approx(alone, rel=1e-10)
        assert single.last_tile_losses is None

    def test_images_shapes(self, cfg, targets, thetas):
        tj, tm = thetas
        images = ProcessWindowSMOObjective(cfg, targets).images(tj, tm)
        b, n = len(targets), cfg.mask_size
        for key in ("aerial", "resist", "resist_min", "resist_max", "mask"):
            assert images[key].shape == (b, n, n), key
        assert images["source"].shape == (cfg.source_size,) * 2

    def test_shape_validation(self, cfg, targets, thetas):
        tj, tm = thetas
        with pytest.raises(ValueError):
            ProcessWindowSMOObjective(cfg, targets[:, :4])  # not the grid
        batched = ProcessWindowSMOObjective(cfg, targets)
        with pytest.raises(ValueError, match="theta_m must be"):
            batched.loss(ad.Tensor(tj), ad.Tensor(tm[:2]))  # wrong B
        with pytest.raises(ValueError, match="theta_m must be"):
            batched.loss(ad.Tensor(tj), ad.Tensor(tm[0]))  # one mask


class TestTileStack:
    def test_shapes_and_binarization(self, cfg):
        ds = dataset_by_name("ICCAD13", num_clips=3)
        config = cfg.with_(tile_nm=2000.0, mask_size=64)
        stack = tile_stack(list(ds), config)
        assert stack.shape == (3, 64, 64)
        assert set(np.unique(stack)) <= {0.0, 1.0}
        np.testing.assert_array_equal(stack, ds.tile_stack(config))

    def test_tile_mismatch_raises(self, cfg):
        ds = dataset_by_name("ICCAD13", num_clips=1)
        with pytest.raises(ValueError):
            tile_stack(list(ds), cfg)  # tiny preset is a 500 nm tile

    def test_empty_raises(self, cfg):
        with pytest.raises(ValueError):
            tile_stack([], cfg)


class TestHarnessBatched:
    def test_batched_objective_helper(self):
        settings = RunSettings.preset("small", iterations=1)
        ds = dataset_by_name("ICCAD-L", num_clips=2)
        objective = batched_objective(list(ds), settings)
        assert objective.num_tiles == 2
        tj = init_theta_source(
            np.ones((settings.config.source_size,) * 2), settings.config
        )
        cfg = settings.config
        tm = np.stack([init_theta_mask(t, cfg) for t in objective.target.data])
        with ad.no_grad():
            assert objective.loss(ad.Tensor(tj), ad.Tensor(tm)).item() > 0

    def test_helper_shares_cached_engine(self):
        from repro.optics import cache

        settings = RunSettings.preset("small", iterations=1)
        ds = dataset_by_name("ICCAD13", num_clips=2)
        o1 = batched_objective(list(ds), settings)
        o2 = batched_objective(list(ds), settings)
        assert o1.engine is o2.engine
        assert o1.engine is cache.abbe_engine(settings.config)
