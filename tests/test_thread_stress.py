"""Concurrency stress tests for the condition-axis fan-out.

Two families of guarantee:

* **Cache safety** — many threads racing the optics cache (directly
  or through an engine's condition axis) build each entry exactly once
  (single-flight), every thread observes the same shared object, and
  nothing is orphaned or duplicated.
* **Bitwise determinism** — ``incoherent_image_stack`` forward and VJP
  produce byte-identical results at 1 vs N condition workers (private
  per-stack buffers + fixed-order reductions), for real and complex
  (aberrated-corner) stacks at B=1 and B=3; at ``default`` every
  streamed pass does at 1, 2 and 3 workers, block by block.

Marked ``thread_stress``: CI runs the suite in its own serialized step
so the deliberate oversubscription doesn't skew timing-sensitive tests.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import (
    AbbeImaging,
    HopkinsImaging,
    OpticalConfig,
    cache,
    fftlib,
)
from tests.test_block_fanout import assert_any_worker_count_is_serial

pytestmark = pytest.mark.thread_stress

N_THREADS = 8
CONDITIONS = [0.0, 40.0, 80.0]  # nominal (real stack) + two complex corners


@pytest.fixture(autouse=True)
def _fresh_state():
    """Cold cache and default threading policy around every test."""
    cache.clear()
    with fftlib.use(
        workers=0,
        chunk=16,
        condition_workers=0,
        budget=0,
    ):
        yield
    cache.clear()


def _fan_out(worker, n_threads: int = N_THREADS):
    """Run ``worker()`` on N threads released simultaneously."""
    barrier = threading.Barrier(n_threads)

    def run():
        barrier.wait()
        return worker()

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(run) for _ in range(n_threads)]
        return [f.result() for f in futures]


class TestCacheStress:
    def test_concurrent_pupil_stack_builds_once(self, tiny_config):
        """Single-flight: N racing threads -> one build per condition."""

        def worker():
            return [cache.pupil_stack(tiny_config, c) for c in CONDITIONS]

        results = _fan_out(worker)
        base = results[0]
        for res in results[1:]:
            for (t1, _), (t2, _) in zip(base, res):
                assert t1 is t2  # every thread holds the shared tensor
        stats = cache.stats()["pupil_stack"]
        assert stats["misses"] == len(CONDITIONS)
        assert stats["hits"] == N_THREADS * len(CONDITIONS) - len(CONDITIONS)
        # no duplicate or orphaned entries, no leaked in-flight markers
        assert len(cache._CACHES["pupil_stack"]) == len(CONDITIONS)
        assert not cache._BUILDING

    def test_concurrent_conj_pairs_builds_once(self, tiny_config):
        def worker():
            return [cache.conj_pairs(tiny_config, c) for c in CONDITIONS]

        _fan_out(worker)
        stats = cache.stats()["conj_pairs"]
        assert stats["misses"] == len(CONDITIONS)
        assert len(cache._CACHES["conj_pairs"]) == len(CONDITIONS)
        assert not cache._BUILDING

    def test_concurrent_abbe_condition_stacks_memo(self, tiny_config):
        """The engine's condition axis resolves through the one memo, the
        cache: one build per condition, the nominal one included, and
        every thread holds the cache's shared tensors."""
        engine = AbbeImaging(tiny_config)

        def worker():
            return engine.condition_stacks(CONDITIONS)

        results = _fan_out(worker)
        for res in results:
            for (t, pairs), c in zip(res, CONDITIONS):
                assert t is cache.pupil_stack(tiny_config, c)[0]
                assert pairs is cache.conj_pairs(tiny_config, c)
        assert results[0][0][0] is engine._pupil_stack
        assert cache.stats()["pupil_stack"]["misses"] == len(CONDITIONS)
        assert len(cache._CACHES["pupil_stack"]) == len(CONDITIONS)
        assert not cache._BUILDING

    def test_concurrent_hopkins_condition_kernels_memo(
        self, tiny_config, tiny_source
    ):
        """No memo: every thread gets the cached SOCS stack for the
        nominal condition and its own phased copy, bitwise equal across
        threads, for the others."""
        engine = HopkinsImaging(tiny_config, tiny_source, num_kernels=6)

        def worker():
            return engine.condition_kernels(CONDITIONS)

        results = _fan_out(worker)
        base = results[0]
        for res in results[1:]:
            assert res[0] is engine._kernel_stack
            for t1, t2 in zip(base[1:], res[1:]):
                assert t1 is not t2
                assert np.array_equal(t1.data, t2.data)


class TestBitwiseParity:
    """1 vs N condition workers must agree to the last bit."""

    def _run_case(self, cfg, batch, rng):
        stacks = [cache.pupil_stack(cfg, c)[0] for c in CONDITIONS]
        pairs = [cache.conj_pairs(cfg, c) for c in CONDITIONS]
        assert np.isrealobj(stacks[0].data)  # nominal: real stack
        assert np.iscomplexobj(stacks[1].data)  # corners: complex stacks
        n = cfg.mask_size
        mask_data = rng.random((batch, n, n))
        weights = rng.random(stacks[0].shape[0])

        def evaluate():
            mask = ad.Tensor(mask_data.copy(), requires_grad=True)
            w = ad.Tensor(weights.copy(), requires_grad=True)
            out = F.incoherent_image_stack(
                mask, stacks, w, conj_pairs=pairs,
                centres=cache.pupil_geometry(cfg)[1],
            )
            loss = F.sum(F.power(out, 2.0))
            gm, gw = ad.grad(loss, [mask, w])
            return out.data.copy(), gm.data.copy(), gw.data.copy()

        with fftlib.use(condition_workers=1):
            serial = evaluate()
        with fftlib.use(condition_workers=4, budget=4):
            assert fftlib.effective_condition_workers() == 4
            fanned = evaluate()
        for s, f in zip(serial, fanned):
            assert np.array_equal(s, f)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_forward_vjp_bitwise(self, tiny_config, batch, rng):
        self._run_case(tiny_config, batch, rng)

    def test_fast_paths_bitwise(self, tiny_config, tiny_source, tiny_target):
        """Graph-free engine fan-outs match their serial runs exactly."""
        abbe = AbbeImaging(tiny_config)
        hop = HopkinsImaging(tiny_config, tiny_source, num_kernels=6)
        with fftlib.use(condition_workers=1):
            ref_a = abbe.aerial_conditions_fast(
                tiny_target, tiny_source, CONDITIONS
            )
            ref_h = hop.aerial_conditions_fast(
                tiny_target, conditions=CONDITIONS
            )
        with fftlib.use(condition_workers=4, budget=4):
            fan_a = abbe.aerial_conditions_fast(
                tiny_target, tiny_source, CONDITIONS
            )
            fan_h = hop.aerial_conditions_fast(
                tiny_target, conditions=CONDITIONS
            )
        assert np.array_equal(ref_a, fan_a)
        assert np.array_equal(ref_h, fan_h)

    def test_concurrent_fast_forward_consistent(
        self, tiny_config, tiny_source, tiny_target
    ):
        """Many simultaneous fan-outs on one shared engine agree."""
        engine = AbbeImaging(tiny_config)
        ref = engine.aerial_conditions_fast(
            tiny_target, tiny_source, CONDITIONS
        )

        def worker():
            return engine.aerial_conditions_fast(
                tiny_target, tiny_source, CONDITIONS
            )

        for out in _fan_out(worker):
            assert np.array_equal(ref, out)


class TestBlockFanOutAtDefault:
    """The block fan-out's bitwise contract on ``default``'s K = 56 of
    N = 128 crops at the real chunk: the nominal stack streams its 57
    pair representatives in 4 blocks, the 80 nm stack (complex, no
    pairing) all 113 kernels in 8; three stacks make 20 blocks."""

    @pytest.fixture(scope="class")
    def engine(self):
        return AbbeImaging(OpticalConfig.preset("default"))

    @pytest.mark.parametrize(
        "conditions",
        [(0.0,), (0.0, 40.0, 80.0), (80.0,), (80.0, 40.0, 120.0)],
        ids=["paired-1", "paired-3", "unpaired-1", "unpaired-3"],
    )
    def test_any_worker_count_is_serial(self, engine, conditions):
        assert_any_worker_count_is_serial(engine, conditions, chunk=16)
