"""Tests for the unified ImagingEngine layer: batched multi-tile
evaluation, the graph-free fast path, and the protocol surface."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.autodiff as ad
from repro.optics import (
    AbbeImaging,
    HopkinsImaging,
    ImagingEngine,
    OpticalConfig,
    as_tile_batch,
)


@pytest.fixture(scope="module")
def cfg() -> OpticalConfig:
    return OpticalConfig.preset("tiny")


@pytest.fixture(scope="module")
def tiles(cfg, tiny_target) -> np.ndarray:
    """Three distinct (N, N) tiles: the target, its transpose, a shifted copy."""
    t = tiny_target
    return np.stack([t, t.T, np.roll(t, 5, axis=1)])


@pytest.fixture(scope="module")
def abbe(cfg) -> AbbeImaging:
    return AbbeImaging(cfg)


@pytest.fixture(scope="module")
def hopkins(cfg, tiny_source) -> HopkinsImaging:
    return HopkinsImaging(cfg, tiny_source, num_kernels=8)


class TestProtocol:
    def test_both_engines_satisfy_protocol(self, abbe, hopkins):
        assert isinstance(abbe, ImagingEngine)
        assert isinstance(hopkins, ImagingEngine)

    def test_abbe_requires_source(self, abbe, tiles):
        with pytest.raises(ValueError):
            abbe.aerial(ad.Tensor(tiles[0]))
        with pytest.raises(ValueError):
            abbe.aerial_fast(tiles[0])

    def test_hopkins_rejects_source(self, hopkins, tiles, tiny_source):
        with pytest.raises(ValueError):
            hopkins.aerial(ad.Tensor(tiles[0]), ad.Tensor(tiny_source))
        with pytest.raises(ValueError):
            hopkins.aerial_fast(tiles[0], tiny_source)

    def test_bad_mask_rank_raises(self, abbe, hopkins, tiles, tiny_source):
        bad = ad.Tensor(tiles[0][0])  # 1-D
        with pytest.raises(ValueError):
            abbe.aerial(bad, ad.Tensor(tiny_source))
        with pytest.raises(ValueError):
            hopkins.aerial(bad)

    def test_as_tile_batch_validation(self, cfg, tiles):
        batch, single = as_tile_batch(tiles[0], cfg.mask_size)
        assert single and batch.shape == (1,) + tiles[0].shape
        batch, single = as_tile_batch(tiles, cfg.mask_size)
        assert not single and batch.shape == tiles.shape
        with pytest.raises(ValueError):
            as_tile_batch(np.zeros((4, 4)), cfg.mask_size)
        with pytest.raises(ValueError):
            as_tile_batch(np.zeros((2, 2, 2, 2)), cfg.mask_size)


class TestBatchedEquivalence:
    def test_abbe_batched_matches_per_tile(self, abbe, tiles, tiny_source):
        src = ad.Tensor(tiny_source)
        with ad.no_grad():
            batched = abbe.aerial(ad.Tensor(tiles), src).data
            singles = np.stack(
                [abbe.aerial(ad.Tensor(t), src).data for t in tiles]
            )
        assert batched.shape == tiles.shape
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_hopkins_batched_matches_per_tile(self, hopkins, tiles):
        with ad.no_grad():
            batched = hopkins.aerial(ad.Tensor(tiles)).data
            singles = np.stack([hopkins.aerial(ad.Tensor(t)).data for t in tiles])
        assert batched.shape == tiles.shape
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_abbe_batched_gradients_match_per_tile(self, abbe, tiles, tiny_source):
        """The fused (B*S, N, N) graph backpropagates per-tile gradients."""
        src_np = tiny_source + 0.05  # keep every source weight active
        stack = ad.Tensor(tiles, requires_grad=True)
        src = ad.Tensor(src_np, requires_grad=True)
        loss = (abbe.aerial(stack, src) ** 2.0).sum()
        gm, gs = ad.grad(loss, [stack, src])
        gs_sum = np.zeros_like(src_np)
        for b, tile in enumerate(tiles):
            m = ad.Tensor(tile, requires_grad=True)
            s = ad.Tensor(src_np, requires_grad=True)
            l_b = (abbe.aerial(m, s) ** 2.0).sum()
            gm_b, gs_b = ad.grad(l_b, [m, s])
            np.testing.assert_allclose(gm.data[b], gm_b.data, atol=1e-9)
            gs_sum += gs_b.data
        np.testing.assert_allclose(gs.data, gs_sum, atol=1e-9)

    def test_hopkins_batched_gradients_match_per_tile(self, hopkins, tiles):
        stack = ad.Tensor(tiles, requires_grad=True)
        loss = (hopkins.aerial(stack) ** 2.0).sum()
        (gm,) = ad.grad(loss, [stack])
        for b, tile in enumerate(tiles):
            m = ad.Tensor(tile, requires_grad=True)
            (gm_b,) = ad.grad((hopkins.aerial(m) ** 2.0).sum(), [m])
            np.testing.assert_allclose(gm.data[b], gm_b.data, atol=1e-9)


class TestFastPathParity:
    def test_abbe_fast_matches_graph_single(self, abbe, tiles, tiny_source):
        """Annular source has exact zeros -> the pruned path must still agree."""
        with ad.no_grad():
            graph = abbe.aerial(ad.Tensor(tiles[0]), ad.Tensor(tiny_source)).data
        fast = abbe.aerial_fast(tiles[0], tiny_source)
        np.testing.assert_allclose(fast, graph, atol=1e-12)

    def test_abbe_fast_matches_graph_batched(self, abbe, tiles, tiny_source):
        with ad.no_grad():
            graph = abbe.aerial(ad.Tensor(tiles), ad.Tensor(tiny_source)).data
        fast = abbe.aerial_fast(tiles, tiny_source)
        assert fast.shape == tiles.shape
        np.testing.assert_allclose(fast, graph, atol=1e-12)

    def test_abbe_fast_dense_source(self, abbe, tiles):
        """No zero weights at all (sigmoid-parametrized source shape)."""
        dense = np.full(abbe.source_grid.shape, 0.3)
        with ad.no_grad():
            graph = abbe.aerial(ad.Tensor(tiles[1]), ad.Tensor(dense)).data
        np.testing.assert_allclose(
            abbe.aerial_fast(tiles[1], dense), graph, atol=1e-12
        )

    def test_abbe_fast_accepts_tensors(self, abbe, tiles, tiny_source):
        out = abbe.aerial_fast(ad.Tensor(tiles[0]), ad.Tensor(tiny_source))
        assert isinstance(out, np.ndarray)

    def test_abbe_fast_all_zero_source(self, abbe, tiles):
        zero = np.zeros(abbe.source_grid.shape)
        with ad.no_grad():
            graph = abbe.aerial(ad.Tensor(tiles[0]), ad.Tensor(zero)).data
        np.testing.assert_allclose(
            abbe.aerial_fast(tiles[0], zero), graph, atol=1e-12
        )

    def test_hopkins_fast_matches_graph(self, hopkins, tiles):
        with ad.no_grad():
            graph_one = hopkins.aerial(ad.Tensor(tiles[0])).data
            graph_all = hopkins.aerial(ad.Tensor(tiles)).data
        np.testing.assert_allclose(
            hopkins.aerial_fast(tiles[0]), graph_one, atol=1e-12
        )
        np.testing.assert_allclose(
            hopkins.aerial_fast(tiles), graph_all, atol=1e-12
        )

    def test_defocused_fast_parity(self, abbe, tiles, tiny_source):
        """Complex (defocused) pupil stacks ride the same fast path."""
        with ad.no_grad():
            graph = abbe.aerial_conditions(
                ad.Tensor(tiles[0]), ad.Tensor(tiny_source), (120.0,)
            ).data
        np.testing.assert_allclose(
            abbe.aerial_conditions_fast(tiles[0], tiny_source, (120.0,)),
            graph,
            atol=1e-12,
        )

    def test_condition_stack_fast_matches_graph(
        self, abbe, hopkins, tiles, tiny_source
    ):
        """The graph-free condition stack is the graph one's values: Abbe
        over a real, a defocused and a coma condition with the binary
        annular source (exact-zero weights), Hopkins over two focus
        values."""
        abbe_conditions = (0.0, 60.0, {"Z7": 30.0})
        assert np.count_nonzero(tiny_source[abbe.source_grid.valid] == 0.0) > 0
        graph = abbe.aerial_conditions(
            ad.Tensor(tiles), ad.Tensor(tiny_source), abbe_conditions
        ).data
        fast = abbe.aerial_conditions_fast(tiles, tiny_source, abbe_conditions)
        assert fast.shape == (3,) + tiles.shape
        np.testing.assert_allclose(fast, graph, rtol=0, atol=1e-12)
        graph = hopkins.aerial_conditions(
            ad.Tensor(tiles), conditions=(0.0, 60.0)
        ).data
        fast = hopkins.aerial_conditions_fast(tiles, conditions=(0.0, 60.0))
        np.testing.assert_allclose(fast, graph, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("model", ["abbe", "hopkins"])
    def test_fast_keeps_complex_mask_phase(
        self, abbe, hopkins, tiles, tiny_source, model
    ):
        """A phase-shift mask keeps its phase on the graph-free path."""
        rng = np.random.default_rng(4)
        quarter_wave = np.where(rng.random(tiles[:2].shape) < 0.5, 1j, 1.0)
        mask = tiles[:2] * quarter_wave
        engine, source = (
            (abbe, tiny_source) if model == "abbe" else (hopkins, None)
        )
        conditions = (0.0, 60.0)
        graph = engine.aerial_conditions(
            ad.Tensor(mask),
            None if source is None else ad.Tensor(source),
            conditions,
        ).data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = engine.aerial_conditions_fast(mask, source, conditions)
        np.testing.assert_allclose(fast, graph, rtol=0, atol=1e-12)
