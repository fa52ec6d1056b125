"""Conformance battery for the fused imaging primitives on the FFT seam.

The battery checks that the fused ``incoherent_image`` /
``incoherent_image_stack`` forward and streamed VJP match the composed
oracle, survive finite-difference gradcheck, are invariant to the
stream chunk size, and agree with the conjugate-pair streaming
optimisation.  Every check runs in two modes: ``numpy``, the
plain run, and ``strict``, inside a :class:`tests.seam.SeamCounter`,
where a transform issued around ``NumpyBackend.fft2``/``ifft2`` fails
the test.  The counted run is asserted bitwise equal to the plain one.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.autodiff.grad import gradcheck
from repro.optics import OpticalConfig, backend, cache, fftlib
from tests.oracles import incoherent_image_composed
from tests.seam import SeamCounter

S, N = 5, 12


@pytest.fixture(params=["numpy", "strict"])
def seam_mode(request) -> str:
    """Run a test plain (``numpy``) or inside a SeamCounter (``strict``)."""
    if request.param == "numpy":
        yield request.param
        return
    with SeamCounter():
        yield request.param


@pytest.fixture(scope="module")
def paired():
    """Real kernel stack with a verified frequency-reversal pairing."""
    rng = np.random.default_rng(21)
    k_reps = rng.standard_normal((3, N, N)) * 0.5
    kernels = np.stack(
        [
            k_reps[0],
            fftlib.freq_reverse(k_reps[0]),
            k_reps[1],
            fftlib.freq_reverse(k_reps[1]),
            k_reps[2] + fftlib.freq_reverse(k_reps[2]),  # self-paired
        ]
    )
    pairs = np.array([1, 0, 3, 2, 4])
    weights = np.array([0.9, 0.4, 0.7, 0.2, 0.5])
    return kernels, pairs, weights


@pytest.fixture(scope="module")
def complex_kernels() -> np.ndarray:
    rng = np.random.default_rng(7)
    return (
        rng.standard_normal((S, N, N)) + 1j * rng.standard_normal((S, N, N))
    ) * 0.3


def _mask(batch: bool = True) -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.standard_normal((3, N, N) if batch else (N, N))


def _loss_and_grads(kernels, weights, conj_pairs=None, chunk=None):
    mt = ad.Tensor(_mask(), requires_grad=True)
    wt = ad.Tensor(weights, requires_grad=True)
    out = F.incoherent_image(mt, kernels, wt, chunk=chunk, conj_pairs=conj_pairs)
    loss = F.sum(F.power(out, 2.0))
    gm, gw = ad.grad(loss, [mt, wt])
    return out.data, float(loss.data), gm.data, gw.data


# ----------------------------------------------------------------------
# the shared battery, per backend
# ----------------------------------------------------------------------
class TestPerBackend:
    def test_forward_matches_composed(self, seam_mode, complex_kernels, paired):
        _, _, weights = paired
        with ad.no_grad():
            fused = F.incoherent_image(_mask(), complex_kernels, weights).data
            composed = incoherent_image_composed(
                _mask(), complex_kernels, weights
            ).data
        np.testing.assert_allclose(fused, composed, atol=1e-12)

    def test_fd_gradcheck_incoherent_image(self, seam_mode, complex_kernels, paired):
        _, _, weights = paired
        gradcheck(
            lambda mt, wt: F.sum(
                F.power(F.incoherent_image(mt, complex_kernels, wt), 2.0)
            ),
            [ad.Tensor(_mask(False)), ad.Tensor(weights)],
            eps=1e-6,
            rtol=1e-4,
            atol=1e-6,
        )

    def test_fd_gradcheck_incoherent_image_stack(
        self, seam_mode, complex_kernels, paired
    ):
        kernels, pairs, weights = paired
        gradcheck(
            lambda mt, wt: F.sum(
                F.power(
                    F.incoherent_image_stack(
                        mt,
                        [kernels, complex_kernels],
                        wt,
                        conj_pairs=[pairs, None],
                    ),
                    2.0,
                )
            ),
            [ad.Tensor(_mask(False)), ad.Tensor(weights)],
            eps=1e-6,
            rtol=1e-4,
            atol=1e-6,
        )

    @pytest.mark.parametrize("chunk", [1, 2, S + 7])
    def test_chunk_invariance(self, seam_mode, complex_kernels, paired, chunk):
        _, _, weights = paired
        ref = _loss_and_grads(complex_kernels, weights, chunk=S)
        out = _loss_and_grads(complex_kernels, weights, chunk=chunk)
        for a, b in zip(out, ref):
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_conj_pair_streaming(self, seam_mode, paired):
        """Paired (half-FFT) streaming == exact unpaired results."""
        kernels, pairs, weights = paired
        o1, l1, gm1, gw1 = _loss_and_grads(kernels, weights)
        o2, l2, gm2, gw2 = _loss_and_grads(kernels, weights, conj_pairs=pairs)
        np.testing.assert_allclose(o2, o1, atol=1e-12)
        np.testing.assert_allclose(l2, l1, rtol=1e-12)
        np.testing.assert_allclose(gm2, gm1, atol=1e-10)
        np.testing.assert_allclose(gw2, gw1, atol=1e-10)

    def test_stack_matches_per_condition_calls(self, seam_mode, complex_kernels, paired):
        kernels, pairs, weights = paired
        m = _mask()
        with ad.no_grad():
            stacked = F.incoherent_image_stack(
                m, [kernels, complex_kernels], weights,
                conj_pairs=[pairs, None],
            ).data
            one_by_one = np.stack(
                [
                    F.incoherent_image(m, kernels, weights, conj_pairs=pairs).data,
                    F.incoherent_image(m, complex_kernels, weights).data,
                ]
            )
        np.testing.assert_allclose(stacked, one_by_one, atol=1e-13)


# ----------------------------------------------------------------------
# counted vs plain runs, and the seam's own primitives
# ----------------------------------------------------------------------
class TestCrossBackend:
    def test_strict_is_bitwise_numpy(self, complex_kernels, paired):
        """Counting wraps the transforms without touching them: counted
        results are bitwise the plain ones."""
        kernels, pairs, weights = paired
        ref = _loss_and_grads(kernels, weights, conj_pairs=pairs)
        with SeamCounter():
            out = _loss_and_grads(kernels, weights, conj_pairs=pairs)
        for a, b in zip(out, ref):
            np.testing.assert_array_equal(a, b)


def _dft(n: int, sign: float) -> np.ndarray:
    """The n-point DFT matrix, ``exp(sign 2 pi i jk / n)`` (no FFT)."""
    j = np.arange(n)
    return np.exp(sign * 2j * np.pi * np.outer(j, j) / n)


class TestBackendProtocol:
    def test_host_singleton_is_numpy_backend(self):
        assert isinstance(backend.HOST, backend.NumpyBackend)

    def test_describe_names_the_backend(self):
        info = backend.describe()
        assert info["backend"] == "numpy"
        assert info["fft_backend"] == "scipy"
        assert info["fft_effective_workers"] == fftlib.effective_workers()

    def test_coerce_host_policy(self, seam_mode):
        """Graph storage is float64 / complex128 whatever comes in."""
        assert ad.Tensor([1, 2, 3]).data.dtype == np.float64
        assert ad.Tensor(np.ones(3, np.float32)).data.dtype == np.float64
        assert ad.Tensor(np.ones(3, np.complex64)).data.dtype == np.complex128
        x = np.arange(4.0)
        assert ad.Tensor(x).data is x  # already float64: no copy

    def test_primitives_match_numpy(self, seam_mode):
        """fft2/ifft2 against the DFT matrix, freq_reverse, and the
        freq axes against numpy's fftfreq."""
        host = backend.HOST
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))
        fwd, inv = _dft(N, -1.0), _dft(N, 1.0) / N
        np.testing.assert_allclose(host.fft2(x), fwd @ x @ fwd.T, atol=1e-12)
        np.testing.assert_allclose(host.ifft2(x), inv @ x @ inv.T, atol=1e-14)
        np.testing.assert_allclose(host.ifft2(host.fft2(x)), x, atol=1e-14)
        rev = (-np.arange(N)) % N
        np.testing.assert_array_equal(
            fftlib.freq_reverse(x.real), x.real[:, rev][:, :, rev]
        )
        cfg = OpticalConfig.preset("tiny")
        np.testing.assert_array_equal(
            cache.freq_axes(cfg)[0], np.fft.fftfreq(cfg.mask_size, d=cfg.pixel_nm)
        )
