"""Tests for the unified FFT dispatch layer (:mod:`repro.optics.fftlib`):
backend selection, worker determinism, the stream-chunk policy, and
policy plumbing into the autodiff FFTs and the optics cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optics import fftlib


@pytest.fixture(autouse=True)
def _restore_policy():
    """Every test runs against the default policy and restores it."""
    with fftlib.use(backend="auto", workers=0, chunk=16):
        yield


@pytest.fixture()
def batch(rng) -> np.ndarray:
    return rng.standard_normal((3, 16, 16))


class TestBackends:
    def test_auto_prefers_scipy_when_available(self):
        assert fftlib.get_backend() in fftlib.available_backends()
        if "scipy" in fftlib.available_backends():
            assert fftlib.get_backend() == "scipy"

    def test_backends_agree(self, batch):
        results = {}
        for name in fftlib.available_backends():
            with fftlib.use(backend=name):
                results[name] = (
                    fftlib.fft2(batch),
                    fftlib.ifft2(batch.astype(np.complex128)),
                    fftlib.fftfreq(16, d=0.5),
                )
        ref_f, ref_i, ref_q = (
            np.fft.fft2(batch),
            np.fft.ifft2(batch),
            np.fft.fftfreq(16, d=0.5),
        )
        for name, (f, i, q) in results.items():
            np.testing.assert_allclose(f, ref_f, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(i, ref_i, atol=1e-12, err_msg=name)
            np.testing.assert_array_equal(q, ref_q, err_msg=name)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            fftlib.set_backend("fftw")

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
            serial = fftlib.fft2(batch)
        with fftlib.use(workers=4):
            threaded = fftlib.fft2(batch)
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
        """The differentiable fft2/ifft2 run on whatever fftlib selects."""
        from repro.autodiff import functional as F

        outs = {}
        for name in fftlib.available_backends():
            with fftlib.use(backend=name):
                outs[name] = F.fft2(batch).data
        for name, value in outs.items():
            np.testing.assert_allclose(
                value, np.fft.fft2(batch), atol=1e-12, err_msg=name
            )

    def test_cache_freq_axes_match_numpy(self):
        from repro.optics import OpticalConfig
        from repro.optics import cache

        cfg = OpticalConfig.preset("tiny")
        f, _ = cache.freq_axes(cfg)
        np.testing.assert_allclose(
            f, np.fft.fftfreq(cfg.mask_size, d=cfg.pixel_nm)
        )
