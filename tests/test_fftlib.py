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
