"""The streamed imaging passes on the block fan-out.

Every streamed pass — the forward, the VJP, the several-term mask
adjoint and the intensity basis — runs as one flat list of (kernel
stack, source chunk) or tile blocks on the condition pool, reduced in
block order on the caller's thread.  So any worker count must give
bitwise the serial result: on the crop path with a conjugate pairing
(the nominal stack), on the crop path without one (a defocused,
complex stack) and on whole-grid kernels (``small``), one stack or
three.  A ``MemoryError`` inside a block task retries the whole pass at
half the chunk, after every task of the failed attempt has finished.
Each stack splits into blocks of near-equal size, and a several-term
mask adjoint, whose terms fold into one upstream per field, equals the
sum of its one-term adjoints.
The ``default`` version of the worker-count check is in
``tests/test_thread_stress.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import AbbeImaging, OpticalConfig, fftlib
from repro.optics.backend import NumpyBackend

#: name -> (preset, one-stack conditions, three-stack conditions)
CASES = {
    "crop-paired": ("tiny", (0.0,), (0.0, 40.0, 80.0)),
    "crop-unpaired": ("tiny", (80.0,), (80.0, 40.0, 120.0)),
    "whole-grid": ("small", (0.0,), (0.0, 40.0, 80.0)),
}
#: Worker policies compared against the serial one.
FANNED = ({"condition_workers": 2, "budget": 3}, {"condition_workers": 3, "budget": 3})


def streamed_passes(engine, conditions, batch=2, seed=0):
    """Run every streamed pass once: ``[image, mask gradient, weight
    gradient, two-term mask adjoint, basis per stack...]``."""
    cfg = engine.config
    n = cfg.mask_size
    stacks, pairs = zip(*engine.condition_stacks(conditions))
    stacks = [st.data for st in stacks]
    pairs = list(pairs)
    centres = engine.pupil_centres
    rng = np.random.default_rng(seed)
    mask = rng.random((batch, n, n))
    w = rng.random(stacks[0].shape[0])
    w[::4] = 0.0  # exact zeros: pruned in the forward only
    upstream = rng.standard_normal((len(stacks), batch, n, n))
    w2 = rng.random(w.size)
    upstream2 = rng.standard_normal(upstream.shape)
    mt = ad.Tensor(mask, requires_grad=True)
    wt = ad.Tensor(w, requires_grad=True)
    out = F.incoherent_image_stack(mt, stacks, wt, conj_pairs=pairs, centres=centres)
    gm, gw = ad.grad(F.sum(F.mul(out, ad.Tensor(upstream))), [mt, wt])
    adjoint = F.incoherent_mask_adjoint(
        mask, stacks, [(w, upstream), (w2, upstream2)], pairs, centres
    )
    bases = [
        F.incoherent_basis(mask, st, centres, cp) for st, cp in zip(stacks, pairs)
    ]
    return [out.data, gm.data, gw.data, adjoint] + bases


def assert_any_worker_count_is_serial(engine, conditions, chunk):
    """Every pass at each policy in ``FANNED`` equals the serial run
    bitwise, and the first pass really splits into several blocks."""
    (stack, _), = engine.condition_stacks(conditions[:1])
    assert stack.shape[0] > 2 * chunk  # several chunks even when paired
    with fftlib.use(condition_workers=1, chunk=chunk):
        serial = streamed_passes(engine, conditions)
    for policy in FANNED:
        with fftlib.use(chunk=chunk, **policy):
            fanned = streamed_passes(engine, conditions)
        for a, b in zip(serial, fanned):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    preset, one, three = CASES[request.param]
    return request.param, AbbeImaging(OpticalConfig.preset(preset)), one, three


class TestAnyWorkerCountIsSerial:
    def test_one_stack(self, case):
        _, engine, one, _ = case
        assert_any_worker_count_is_serial(engine, one, chunk=4)

    def test_three_stacks(self, case):
        _, engine, _, three = case
        assert_any_worker_count_is_serial(engine, three, chunk=4)

    def test_paths_are_the_ones_named(self, case):
        """Crop cases crop, the paired case streams pair
        representatives of a real stack, the unpaired one a complex
        stack."""
        name, engine, one, _ = case
        (stack, pairs), = engine.condition_stacks(one)
        assert (stack.shape[-1] < engine.config.mask_size) == name.startswith("crop")
        assert (pairs is not None) == (name != "crop-unpaired")
        assert stack.is_complex == (name == "crop-unpaired")


class TestEqualChunks:
    @pytest.mark.parametrize("chunk", [1, 3, 4, 16, 25])
    def test_near_equal_blocks_within_the_chunk(self, chunk):
        """Each stack of R kernels splits into ceil(R / chunk) contiguous
        blocks, in stack order, whose sizes differ by at most one and
        never exceed the chunk."""
        sizes = [25, 49, 0, 16, 17, 3]
        blocks = F._chunks(sizes, chunk)
        assert [fi for fi, _, _ in blocks] == sorted(fi for fi, _, _ in blocks)
        for fi, r in enumerate(sizes):
            own = [(lo, hi) for f, lo, hi in blocks if f == fi]
            assert len(own) == -(-r // chunk)
            if not own:
                continue
            assert own[0][0] == 0 and own[-1][1] == r
            assert all(a[1] == b[0] for a, b in zip(own, own[1:]))
            widths = [hi - lo for lo, hi in own]
            assert max(widths) - min(widths) <= 1 and max(widths) <= chunk

    def test_no_straggler(self):
        assert [hi - lo for _, lo, hi in F._chunks([49], 16)] == [12, 12, 12, 13]


class TestTermsFold:
    """A T-term mask adjoint is the sum of its one-term adjoints: the
    terms fold into one upstream per field before its transform."""

    @pytest.mark.parametrize("terms", [2, 5])
    @pytest.mark.parametrize("stacks", ["one", "three"])
    def test_sum_of_one_term_adjoints(self, case, stacks, terms):
        _, engine, one, three = case
        conditions = one if stacks == "one" else three
        st, pairs = zip(*engine.condition_stacks(conditions))
        st = [x.data for x in st]
        n = engine.config.mask_size
        rng = np.random.default_rng(terms)
        mask = rng.random((2, n, n))
        term_list = [
            (rng.random(st[0].shape[0]), rng.standard_normal((len(st), 2, n, n)))
            for _ in range(terms)
        ]
        centres = engine.pupil_centres
        with fftlib.use(chunk=4):
            folded = F.incoherent_mask_adjoint(mask, st, term_list, pairs, centres)
            parts = [
                F.incoherent_mask_adjoint(mask, st, [t], pairs, centres)
                for t in term_list
            ]
        total = np.sum(parts, axis=0)
        assert folded.dtype == total.dtype == np.float64
        assert np.max(np.abs(folded - total)) <= 1e-13 * np.max(np.abs(total))


class TestMemoryErrorInABlockTask:
    """A ``MemoryError`` raised on a pool thread partway through a pass
    retries it at half the chunk, over a drained pool."""

    @pytest.mark.parametrize("which", ["forward", "adjoint"])
    def test_retry_is_serial_at_half_the_chunk(self, tiny_config, monkeypatch, which):
        engine = AbbeImaging(tiny_config)
        (stack, pairs), = engine.condition_stacks((0.0,))
        n = tiny_config.mask_size
        rng = np.random.default_rng(3)
        mask = rng.random((2, n, n))
        w = rng.random(stack.shape[0])
        upstream = rng.standard_normal((1, 2, n, n))

        def run():
            if which == "forward":
                with ad.no_grad():
                    return F.incoherent_image_stack(
                        mask, [stack], w, conj_pairs=[pairs],
                        centres=engine.pupil_centres,
                    ).data
            return F.incoherent_mask_adjoint(
                mask, [stack], [(w, upstream)], [pairs], engine.pupil_centres
            )

        with fftlib.use(condition_workers=1, chunk=2):
            reference = run()

        lock = threading.Lock()
        state = {"block_calls": 0, "at_failure": []}
        attempts = []
        fan_outs = []  # per map_conditions call: its live and started tasks

        original_map = fftlib.map_conditions

        def counting_map(fn, num_tasks):
            tasks = {"live": 0, "started": 0}
            fan_outs.append(tasks)

            def counted(i):
                with lock:
                    tasks["live"] += 1
                    tasks["started"] += 1
                try:
                    return fn(i)
                finally:
                    with lock:
                        tasks["live"] -= 1

            return original_map(counted, num_tasks)

        original_ifft2 = NumpyBackend.ifft2

        def ifft2(self, x, overwrite_x=False):
            on_pool = threading.current_thread().name.startswith("repro-cond")
            if np.ndim(x) == 4 and on_pool and len(attempts) == 1:
                with lock:
                    state["block_calls"] += 1
                    fail = state["block_calls"] == 2
                if fail:
                    raise MemoryError("injected on a pool thread")
                time.sleep(0.05)  # keep the attempt's other tasks in flight
            return original_ifft2(self, x, overwrite_x)

        original_fallback = fftlib.run_with_chunk_fallback

        def spied_fallback(fn, csize):
            def attempt(c):
                attempts.append(c)
                try:
                    return fn(c)
                except MemoryError:
                    state["at_failure"].append(dict(fan_outs[-1]))
                    raise

            return original_fallback(attempt, csize)

        monkeypatch.setattr(fftlib, "map_conditions", counting_map)
        monkeypatch.setattr(NumpyBackend, "ifft2", ifft2)
        monkeypatch.setattr(fftlib, "run_with_chunk_fallback", spied_fallback)
        with fftlib.use(condition_workers=2, budget=2, chunk=4):
            got = run()
        assert stack.shape[0] // 2 > 3 * 4  # the failed attempt has 4 blocks
        assert attempts == [4, 2]
        # No task of the failed attempt was running as its error left the
        # pass, and none started after: the queued ones were cancelled.
        (failed,) = state["at_failure"]
        assert failed["live"] == 0 and fan_outs[0] == failed
        assert [tasks["live"] for tasks in fan_outs] == [0, 0]
        assert np.array_equal(got, reference)
