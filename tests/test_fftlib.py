"""Tests for the FFT seam's thread policy (:mod:`repro.optics.fftlib`):
scoped policy, worker determinism, the stream-chunk policy, the env
knobs, and the autodiff FFTs and the optics cache on the seam."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.harness.resilience import default_cell_timeout, default_max_retries
from repro.optics import backend, fftlib
from tests.seam import SeamCounter


@pytest.fixture(autouse=True)
def _restore_policy():
    """Every test runs against the default policy and restores it."""
    with fftlib.use(workers=0, chunk=16):
        yield


@pytest.fixture()
def batch(rng) -> np.ndarray:
    return rng.standard_normal((3, 16, 16))


class TestBackends:
    """Scoped overrides of the policy (``fftlib.use``)."""

    def test_use_restores_state(self):
        before = fftlib.describe()
        with fftlib.use(workers=3, chunk=4, condition_workers=2):
            assert fftlib.get_workers() == 3
            assert fftlib.get_stream_chunk() == 4
            assert fftlib.get_condition_workers() == 2
        assert fftlib.describe() == before

    def test_use_restores_on_error(self):
        before = fftlib.describe()
        with pytest.raises(RuntimeError):
            with fftlib.use(workers=5):
                raise RuntimeError("boom")
        assert fftlib.describe() == before


class TestWorkers:
    def test_validation(self):
        with pytest.raises(ValueError):
            fftlib.set_workers(-1)
        fftlib.set_workers(0)
        assert fftlib.effective_workers() >= 1

    def test_multiworker_results_bitwise_identical(self, batch):
        """pocketfft threads across independent transforms — no
        cross-thread reductions, so results must be bitwise equal."""
        with fftlib.use(workers=1):
            serial = backend.HOST.fft2(batch)
        with fftlib.use(workers=4):
            threaded = backend.HOST.fft2(batch)
        np.testing.assert_array_equal(serial, threaded)


class TestPrecisionPolicy:
    """The compute policy beside backend and workers: the stream chunk."""

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            fftlib.set_stream_chunk(0)
        fftlib.set_stream_chunk(8)
        assert fftlib.get_stream_chunk() == 8


class TestAutodiffDispatch:
    def test_functional_ffts_follow_backend(self, batch):
        """The differentiable fft2/ifft2 transform through the seam."""
        from repro.autodiff import functional as F

        ref = np.fft.fft2(batch)
        with SeamCounter() as seam:
            out = F.ifft2(F.fft2(batch)).data
        assert seam.counters["fft2_calls"] == seam.counters["ifft2_calls"] == 1
        np.testing.assert_allclose(out, batch, atol=1e-13)
        np.testing.assert_allclose(F.fft2(batch).data, ref, atol=1e-12)

    def test_cache_freq_axes_match_numpy(self):
        from repro.optics import OpticalConfig
        from repro.optics import cache

        cfg = OpticalConfig.preset("tiny")
        f, _ = cache.freq_axes(cfg)
        np.testing.assert_array_equal(
            f, np.fft.fftfreq(cfg.mask_size, d=cfg.pixel_nm)
        )


#: (variable, malformed value, what the message says it must be, reader)
ENV_KNOBS = [
    ("REPRO_FFT_WORKERS", "abc", "an integer >= 0", fftlib._env_policy),
    ("REPRO_FFT_CHUNK", "0", "an integer >= 1", fftlib._env_policy),
    ("REPRO_COND_WORKERS", "-1", "an integer >= 0", fftlib._env_policy),
    ("REPRO_WORKER_BUDGET", "1.5", "an integer >= 0", fftlib._env_policy),
    ("REPRO_MAX_RETRIES", "two", "an integer >= 0", default_max_retries),
    ("REPRO_CELL_TIMEOUT", "nan", "a number >= 0", default_cell_timeout),
]


@pytest.mark.parametrize(
    "var, raw, expected, read", ENV_KNOBS, ids=[k[0] for k in ENV_KNOBS]
)
def test_numeric_env_knobs_name_themselves(monkeypatch, var, raw, expected, read):
    monkeypatch.setenv(var, raw)
    message = f"{var} must be {expected}; got {raw!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        read()


class TestMapConditions:
    """The one ordered fan-out: index order, a bounded number of tasks
    in flight, inline runs, and no task outliving the iteration."""

    @staticmethod
    def _tracked(delay: float = 0.01, fail_at: int = -1):
        """``(fn, state)``: ``fn(i)`` sleeps, returns ``i * i`` (raises
        at ``fail_at``) and records live/peak task counts and threads."""
        import threading
        import time

        lock = threading.Lock()
        state = {"live": 0, "peak": 0, "started": 0, "threads": set(), "shares": set()}

        def fn(i: int) -> int:
            with lock:
                state["live"] += 1
                state["started"] += 1
                state["peak"] = max(state["peak"], state["live"])
                state["threads"].add(threading.get_ident())
                state["shares"].add(fftlib.effective_workers())
            try:
                if i == fail_at:
                    raise MemoryError("injected")
                time.sleep(delay)
                return i * i
            finally:
                with lock:
                    state["live"] -= 1

        return fn, state

    @pytest.mark.parametrize("workers", [2, 3])
    def test_index_order_and_bounded_inflight(self, workers):
        fn, state = self._tracked()
        with fftlib.use(condition_workers=workers, budget=6):
            assert list(fftlib.map_conditions(fn, 7)) == [i * i for i in range(7)]
        assert 1 < state["peak"] <= workers
        assert state["shares"] == {6 // workers}  # the budget split

    def test_finished_block_waits_while_a_slow_head_runs(self, monkeypatch):
        """On a pool with more threads than the window, a task finishing
        ahead of a slow head lets the next one start: task 2 starts while
        task 0 still runs.  At most w = 2 tasks run at once, at most
        w + 1 = 3 blocks are held (running or awaiting their turn), and
        results still leave in index order."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        lock = threading.Lock()
        third_started = threading.Event()
        state = {"live": 0, "peak_live": 0, "started": 0, "taken": 0, "peak_held": 0}

        def fn(i: int) -> int:
            with lock:
                state["live"] += 1
                state["started"] += 1
                state["peak_live"] = max(state["peak_live"], state["live"])
                held = state["started"] - state["taken"]
                state["peak_held"] = max(state["peak_held"], held)
            if i == 2:
                third_started.set()
            try:
                if i == 0:
                    state["third_ran_beside_head"] = third_started.wait(timeout=2.0)
                return i * i
            finally:
                with lock:
                    state["live"] -= 1

        pool = ThreadPoolExecutor(max_workers=4, thread_name_prefix="repro-cond")
        monkeypatch.setattr(fftlib, "_POOL", pool)
        got = []
        try:
            with fftlib.use(condition_workers=2, budget=4):
                for value in fftlib.map_conditions(fn, 7):
                    got.append(value)
                    with lock:
                        state["taken"] += 1
        finally:
            pool.shutdown(wait=True)
        assert got == [i * i for i in range(7)]
        assert state["third_ran_beside_head"]
        assert state["peak_live"] == 2
        assert state["peak_held"] == 3

    @pytest.mark.parametrize(
        "policy, tasks",
        [({"condition_workers": 1}, 4), ({"budget": 1}, 4), ({}, 1)],
        ids=["serial-policy", "budget-1", "one-task"],
    )
    def test_runs_inline(self, policy, tasks):
        import threading

        fn, state = self._tracked(delay=0.0)
        with fftlib.use(**policy):
            assert list(fftlib.map_conditions(fn, tasks)) == [
                i * i for i in range(tasks)
            ]
        assert state["threads"] == {threading.get_ident()}

    def test_nested_call_runs_inline(self):
        import threading

        def outer(i: int) -> set:
            inner = lambda j: threading.get_ident()  # noqa: E731
            return set(fftlib.map_conditions(inner, 3)) | {threading.get_ident()}

        with fftlib.use(condition_workers=2, budget=2):
            per_task = list(fftlib.map_conditions(outer, 2))
        assert all(len(ids) == 1 for ids in per_task)
        assert threading.get_ident() not in set.union(*per_task)

    @staticmethod
    def _assert_none_outlived(state):
        """No task is running, and none starts later: each one still
        queued when the iteration ended was cancelled."""
        import time

        started = state["started"]
        assert state["live"] == 0
        time.sleep(0.1)
        assert state["started"] == started and state["live"] == 0

    def test_consumer_stopping_early_waits_for_tasks(self):
        fn, state = self._tracked(delay=0.05)
        with fftlib.use(condition_workers=2, budget=2):
            for value in fftlib.map_conditions(fn, 6):
                assert value == 0
                break
        self._assert_none_outlived(state)

    def test_consumer_error_waits_for_tasks(self):
        fn, state = self._tracked(delay=0.05)
        with fftlib.use(condition_workers=2, budget=2):
            with pytest.raises(RuntimeError, match="consumer"):
                for _ in fftlib.map_conditions(fn, 6):
                    raise RuntimeError("consumer")
        self._assert_none_outlived(state)

    def test_task_error_waits_for_tasks(self):
        fn, state = self._tracked(delay=0.05, fail_at=1)
        with fftlib.use(condition_workers=2, budget=2):
            with pytest.raises(MemoryError, match="injected"):
                list(fftlib.map_conditions(fn, 6))
        self._assert_none_outlived(state)
