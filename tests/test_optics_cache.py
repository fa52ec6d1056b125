"""Tests for the shared optics cache: memoized grids, pupil-stack and
SOCS reuse across engine instances, and the hit/miss accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optics import (
    AbbeImaging,
    HopkinsImaging,
    OpticalConfig,
    cache,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test observes a cold cache and leaves a clean one behind."""
    cache.clear()
    yield
    cache.clear()


@pytest.fixture()
def cfg() -> OpticalConfig:
    return OpticalConfig.preset("tiny")


class TestFreqMemoization:
    def test_freq_axes_cached_and_readonly(self, cfg):
        f1, _ = cfg.freq_axes()
        f2, _ = cfg.freq_axes()
        assert f1 is f2
        assert not f1.flags.writeable
        np.testing.assert_allclose(
            f1, np.fft.fftfreq(cfg.mask_size, d=cfg.pixel_nm)
        )

    def test_freq_grid_cached(self, cfg):
        fx1, fy1 = cfg.freq_grid()
        fx2, fy2 = cfg.freq_grid()
        assert fx1 is fx2 and fy1 is fy2
        assert not fx1.flags.writeable

    def test_equal_configs_share_entries(self):
        """Distinct but equal frozen configs key into the same entry."""
        a = OpticalConfig.preset("tiny")
        b = OpticalConfig.preset("tiny")
        assert a is not b
        assert a.freq_grid()[0] is b.freq_grid()[0]

    def test_loss_weight_changes_share_grids(self, cfg):
        """Keys cover only the physically relevant fields."""
        other = cfg.with_(gamma=1.0, eta=2.0)
        assert cfg.freq_grid()[0] is other.freq_grid()[0]

    def test_different_grids_differ(self, cfg):
        other = cfg.with_(mask_size=64)
        assert cfg.freq_axes()[0] is not other.freq_axes()[0]
        assert len(cfg.freq_axes()[0]) != len(other.freq_axes()[0])


class TestPupilStackReuse:
    def test_second_engine_reuses_pupil_stack(self, cfg):
        e1 = AbbeImaging(cfg)
        before = cache.stats()["pupil_stack"]
        e2 = AbbeImaging(cfg)
        after = cache.stats()["pupil_stack"]
        assert e1._pupil_stack is e2._pupil_stack
        assert e1._valid_index is e2._valid_index
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_cached_engine_instance_shared(self, cfg):
        assert cache.abbe_engine(cfg) is cache.abbe_engine(cfg)

    def test_defocus_keys_separately(self, cfg):
        engine = AbbeImaging(cfg)
        before = cache.stats()["pupil_stack"]
        (s0, _), (sd, _) = engine.condition_stacks((0.0, 100.0))
        after = cache.stats()["pupil_stack"]
        assert s0 is engine._pupil_stack
        assert s0 is not sd
        # one hit for the nominal condition, which resolves through the
        # cache like any other, and one for the 100 nm stack that its
        # conjugate-pairing build reads back
        assert after["hits"] == before["hits"] + 2


class TestSocsReuse:
    def test_second_hopkins_reuses_decomposition(self, cfg, tiny_source):
        h1 = HopkinsImaging(cfg, tiny_source, num_kernels=6)
        before = cache.stats()["socs"]
        h2 = HopkinsImaging(cfg, tiny_source, num_kernels=6)
        after = cache.stats()["socs"]
        assert h1._kernel_stack is h2._kernel_stack
        assert h1.weights is h2.weights
        assert h1.tcc_trace == h2.tcc_trace
        assert after["hits"] == before["hits"] + 1

    def test_truncation_order_keys_separately(self, cfg, tiny_source):
        h6 = HopkinsImaging(cfg, tiny_source, num_kernels=6)
        h8 = HopkinsImaging(cfg, tiny_source, num_kernels=8)
        assert h6._kernel_stack is not h8._kernel_stack
        assert h6.num_kernels == 6 and h8.num_kernels == 8

    def test_source_pixels_key_the_entry(self, cfg, tiny_source):
        h1 = HopkinsImaging(cfg, tiny_source, num_kernels=6)
        other = tiny_source * 0.5
        h2 = HopkinsImaging(cfg, other, num_kernels=6)
        assert h1._kernel_stack is not h2._kernel_stack

    def test_byte_budget_evicts(self, cfg, tiny_source, monkeypatch):
        """Source-keyed SOCS entries cannot grow without limit (AM rebuilds)."""
        _, kernels, _ = cache.socs(cfg, tiny_source, 4)
        monkeypatch.setattr(cache, "SOCS_BUDGET_BYTES", 3 * kernels.data.nbytes)
        rng = np.random.default_rng(0)
        for _ in range(10):
            src = tiny_source * rng.uniform(0.1, 1.0)
            cache.socs(cfg, src, 4)
        assert len(cache._CACHES["socs"]) <= 3

    def test_oversized_entry_still_cached(self, cfg, tiny_source, monkeypatch):
        """A decomposition larger than the whole budget keeps one live copy."""
        monkeypatch.setattr(cache, "SOCS_BUDGET_BYTES", 1)
        e1 = cache.socs(cfg, tiny_source, 4)
        e2 = cache.socs(cfg, tiny_source, 4)
        assert e1[1] is e2[1]
        assert len(cache._CACHES["socs"]) == 1


class TestAccounting:
    def test_stats_shape_and_reset(self, cfg):
        cfg.freq_axes()
        cfg.freq_axes()
        stats = cache.stats()
        assert stats["freq_axes"]["misses"] == 1
        assert stats["freq_axes"]["hits"] == 1
        cache.reset_stats()
        stats = cache.stats()
        assert stats["freq_axes"] == {"hits": 0, "misses": 0}

    def test_clear_drops_entries(self, cfg):
        f1, _ = cfg.freq_axes()
        cache.clear()
        f2, _ = cfg.freq_axes()
        assert f1 is not f2
        np.testing.assert_allclose(f1, f2)

    def test_objectives_share_one_engine(self, cfg, tiny_target):
        """Objective default engines route through the cache."""
        from repro.smo import ProcessWindowSMOObjective

        o1 = ProcessWindowSMOObjective(cfg, tiny_target)
        o2 = ProcessWindowSMOObjective(cfg, tiny_target)
        assert o1.engine is o2.engine

    def test_clear_during_build_still_caches(self, cfg):
        """A clear() racing a slow build must not orphan the insert.

        The entry has to land in the *live* category dict so the next
        lookup is a hit — the pre-fix behavior silently inserted into a
        dict that clear() had already discarded.
        """
        calls = {"n": 0}

        def build():
            calls["n"] += 1
            cache.clear()  # simulates a concurrent clear mid-build
            return object()

        first = cache._lookup("race", "key", build)
        second = cache._lookup("race", "key", lambda: object())
        assert second is first  # cached despite the clear
        assert calls["n"] == 1
        assert cache.stats()["race"]["hits"] == 1

    def test_clear_during_build_keeps_stats_truthful(self, cfg):
        def build():
            cache.clear()
            return object()

        cache._lookup("race2", "k", build)
        stats = cache.stats()["race2"]
        # the post-clear insert re-registers the category, so the
        # subsequent hit/miss accounting starts from a live dict
        assert stats == {"hits": 0, "misses": 0}
        cache._lookup("race2", "k", lambda: object())
        assert cache.stats()["race2"]["hits"] == 1


class TestWarmup:
    def test_warmup_populates_config_keyed_categories(self, cfg):
        cache.warmup(cfg)
        stats = cache.stats()
        for category in (
            "freq_axes",
            "freq_grid",
            "source_grid",
            "pupil_stack",
            "abbe_engine",
        ):
            assert stats[category]["misses"] >= 1, category
        cache.reset_stats()
        engine = cache.abbe_engine(cfg)
        assert engine is not None
        stats = cache.stats()
        assert stats["abbe_engine"] == {"hits": 1, "misses": 0}

    def test_warmup_is_idempotent(self, cfg):
        cache.warmup(cfg)
        cache.reset_stats()
        cache.warmup(cfg)
        stats = cache.stats()
        assert all(v["misses"] == 0 for v in stats.values())
