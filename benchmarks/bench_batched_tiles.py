"""Batched multi-tile Abbe evaluation vs. the per-tile Python loop.

The tentpole claim of the ImagingEngine refactor: evaluating a layout
suite as one ``(B, N, N)`` batch through the engine's fused multi-tile
forward (plus the graph-free fast path) beats looping the single-tile
engine over the suite — the acceptance bar is >= 2x for B = 8 tiles
against the *pre-refactor* consumer pattern (per-tile composed-op
graphs, the ``ComposedAbbeImaging`` oracle of ``tests/oracles.py``).
The fused imaging primitive has since made even the per-tile *fused*
loop nearly as fast as the batched fast path in no-grad mode, so that
loop is reported for context but no longer gated.

Run like every other bench module, e.g.::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_batched_tiles.py \
        --benchmark-json=batched_tiles.json

``BISMO_BENCH_CHECK_ONLY=1`` keeps the parity asserts but skips the
wall-clock gate (CI check mode on shared runners).
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
import pytest

import repro.autodiff as ad
from repro.harness.runner import _annular_source
from repro.layouts import dataset_by_name, tile_stack
from repro.optics import cache, engine_for

from conftest import BENCH_SCALE, BENCH_ITERS  # noqa: F401  (shared scale knobs)
from bench_env import env_flag

# The composed-op reference engine is a test oracle (tests/oracles.py).
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.oracles import ComposedAbbeImaging  # noqa: E402

NUM_TILES = 8
CHECK_ONLY = env_flag("BISMO_BENCH_CHECK_ONLY")


@pytest.fixture(scope="module")
def setup(settings):
    cfg = settings.config
    ds = dataset_by_name("ICCAD13", num_clips=NUM_TILES)
    tiles = tile_stack(list(ds), cfg)
    source = _annular_source(cfg)
    engine = engine_for(cfg, "abbe")
    return engine, tiles, source


def _per_tile_loop(engine, tiles, source):
    """The per-tile consumer pattern: B independent single-tile passes."""
    src = ad.Tensor(source)
    with ad.no_grad():
        return np.stack(
            [engine.aerial(ad.Tensor(tile), src).data for tile in tiles]
        )


def test_per_tile_loop(benchmark, setup):
    engine, tiles, source = setup
    benchmark(lambda: _per_tile_loop(engine, tiles, source))
    benchmark.extra_info["tiles"] = NUM_TILES


def test_batched_fast_path(benchmark, setup):
    engine, tiles, source = setup
    benchmark(lambda: engine.aerial_fast(tiles, source))
    benchmark.extra_info["tiles"] = NUM_TILES
    benchmark.extra_info["source_points"] = engine.num_source_points


def test_batched_graph_path(benchmark, setup):
    """Differentiable fused (B*S, N, N) stack (for batched optimization)."""
    engine, tiles, source = setup
    src = ad.Tensor(source)
    stack = ad.Tensor(tiles)
    with ad.no_grad():
        benchmark(lambda: engine.aerial(stack, src).data)


def test_engine_cache_warm_start(benchmark, setup):
    """Second engine for an identical config: cache hit, no pupil rebuild."""
    engine, _, _ = setup
    cfg = engine.config
    # Zero the counters so the hit/miss assert is independent of what
    # other bench modules built earlier in the session.
    cache.reset_stats()

    def rebuild():
        return engine_for(cfg, "abbe")

    benchmark(rebuild)
    assert rebuild() is engine
    stats = cache.stats()["abbe_engine"]
    benchmark.extra_info["engine_hits"] = stats["hits"]
    assert stats["hits"] > 0 and stats["misses"] <= 1


def test_batched_speedup_and_parity(setup):
    """The acceptance bar: batched fast path >= 2x over the pre-refactor
    per-tile composed loop, identical images (the fused per-tile loop is
    reported for context — PR 3 closed most of its gap by design)."""
    engine, tiles, source = setup
    composed_engine = ComposedAbbeImaging(engine.config)
    loop_result = _per_tile_loop(engine, tiles, source)
    composed_result = _per_tile_loop(composed_engine, tiles, source)
    fast_result = engine.aerial_fast(tiles, source)
    np.testing.assert_allclose(fast_result, loop_result, atol=1e-10)
    np.testing.assert_allclose(fast_result, composed_result, atol=1e-10)
    if CHECK_ONLY:
        pytest.skip("BISMO_BENCH_CHECK_ONLY=1: parity verified, timing skipped")

    def best_of(fn, rounds=3):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_composed = best_of(lambda: _per_tile_loop(composed_engine, tiles, source))
    t_loop = best_of(lambda: _per_tile_loop(engine, tiles, source))
    t_batch = best_of(lambda: engine.aerial_fast(tiles, source))
    speedup = t_composed / t_batch
    print(
        f"\nbatched tiles: B={NUM_TILES} composed-loop={t_composed * 1e3:.1f} ms "
        f"fused-loop={t_loop * 1e3:.1f} ms batched={t_batch * 1e3:.1f} ms "
        f"speedup={speedup:.2f}x"
    )
    assert speedup >= 2.0, f"batched path only {speedup:.2f}x over the composed loop"
