"""Cross-backend conformance suite for the array-backend seam.

One parametrized battery runs against every registered backend that is
constructible in this environment — numpy always, the instrumented
strict backend always, torch when installed (CI's torch-CPU leg).  Each
backend must reproduce the fused ``incoherent_image`` /
``incoherent_image_stack`` forward and streamed VJP, survive
finite-difference gradcheck, match the exact HVP / mixed-JVP oracles
against their finite-difference counterparts, be invariant to the
stream chunk size, and agree with the conjugate-pair streaming
optimisation.  The numpy backend is additionally asserted to be
*bitwise* identical to the strict backend (tagging is a zero-copy
view), and torch-CPU gradients must match numpy to 1e-8 at float64.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.autodiff.grad import gradcheck
from repro.optics import backend, fftlib
from tests.oracles import incoherent_image_composed

S, N = 5, 12

TORCH_MISSING = "torch" not in backend.available_backends()

ALL_BACKENDS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("strict", id="strict"),
    pytest.param(
        "torch",
        id="torch",
        marks=pytest.mark.skipif(TORCH_MISSING, reason="torch not installed"),
    ),
]


@pytest.fixture(params=ALL_BACKENDS)
def bk_name(request) -> str:
    """Activate one backend for the duration of a test."""
    with backend.use_backend(request.param) as bk:
        if isinstance(bk, backend.StrictBackend):
            bk.reset()
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
    def test_forward_matches_composed(self, bk_name, complex_kernels, paired):
        _, _, weights = paired
        with ad.no_grad():
            fused = F.incoherent_image(_mask(), complex_kernels, weights).data
            composed = incoherent_image_composed(
                _mask(), complex_kernels, weights
            ).data
        np.testing.assert_allclose(fused, composed, atol=1e-12)

    def test_fd_gradcheck_incoherent_image(self, bk_name, complex_kernels, paired):
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
        self, bk_name, complex_kernels, paired
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

    def test_hvp_matches_fd_oracle(self, bk_name, complex_kernels, paired):
        """Exact double-backward HVP == finite-difference HVP."""
        _, _, weights = paired

        def loss_fn(mt):
            return F.sum(
                F.power(F.incoherent_image(mt, complex_kernels, weights), 2.0)
            )

        def grad_fn(mt):
            mt = ad.Tensor(mt.data, requires_grad=True)
            (g,) = ad.grad(loss_fn(mt), [mt])
            return g

        rng = np.random.default_rng(5)
        x = ad.Tensor(_mask(False))
        v = ad.Tensor(rng.standard_normal((N, N)))
        h_exact = ad.hvp(loss_fn, x, v)
        h_fd = ad.hvp_fd(grad_fn, x, v)
        scale = max(float(np.abs(h_fd.data).max()), 1e-30)
        np.testing.assert_allclose(
            h_exact.data, h_fd.data, rtol=1e-4, atol=1e-5 * scale
        )

    def test_mixed_jvp_matches_fd_oracle(self, bk_name, complex_kernels, paired):
        """Exact mixed second derivative == finite-difference oracle."""
        _, _, weights = paired

        def loss_fn(mt, wt):
            return F.sum(
                F.power(F.incoherent_image(mt, complex_kernels, wt), 2.0)
            )

        rng = np.random.default_rng(6)
        x = ad.Tensor(_mask(False))
        y = ad.Tensor(weights)
        v = ad.Tensor(rng.standard_normal((N, N)))
        mj = ad.mixed_jvp(loss_fn, x, y, v)

        def grad_y_fn(xt):
            xt = ad.Tensor(xt.data, requires_grad=True)
            yt = ad.Tensor(weights, requires_grad=True)
            (gy,) = ad.grad(loss_fn(xt, yt), [yt])
            return gy

        mj_fd = ad.mixed_jvp_fd(grad_y_fn, x, v)
        scale = max(float(np.abs(mj_fd.data).max()), 1e-30)
        np.testing.assert_allclose(
            mj.data, mj_fd.data, rtol=1e-4, atol=1e-5 * scale
        )

    @pytest.mark.parametrize("chunk", [1, 2, S + 7])
    def test_chunk_invariance(self, bk_name, complex_kernels, paired, chunk):
        _, _, weights = paired
        ref = _loss_and_grads(complex_kernels, weights, chunk=S)
        out = _loss_and_grads(complex_kernels, weights, chunk=chunk)
        for a, b in zip(out, ref):
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_conj_pair_streaming(self, bk_name, paired):
        """Paired (half-FFT) streaming == exact unpaired results."""
        kernels, pairs, weights = paired
        o1, l1, gm1, gw1 = _loss_and_grads(kernels, weights)
        o2, l2, gm2, gw2 = _loss_and_grads(kernels, weights, conj_pairs=pairs)
        np.testing.assert_allclose(o2, o1, atol=1e-12)
        np.testing.assert_allclose(l2, l1, rtol=1e-12)
        np.testing.assert_allclose(gm2, gm1, atol=1e-10)
        np.testing.assert_allclose(gw2, gw1, atol=1e-10)

    def test_stack_matches_per_condition_calls(self, bk_name, complex_kernels, paired):
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
# cross-backend agreement
# ----------------------------------------------------------------------
class TestCrossBackend:
    def test_strict_is_bitwise_numpy(self, complex_kernels, paired):
        """Strict tagging is a zero-copy view: results are bitwise numpy."""
        kernels, pairs, weights = paired
        with backend.use_backend("numpy"):
            ref = _loss_and_grads(kernels, weights, conj_pairs=pairs)
        with backend.use_backend("strict"):
            out = _loss_and_grads(kernels, weights, conj_pairs=pairs)
        for a, b in zip(out, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.skipif(TORCH_MISSING, reason="torch not installed")
    def test_torch_cpu_grads_match_numpy(self, complex_kernels, paired):
        """numpy and torch-CPU gradients agree to 1e-8 at float64."""
        kernels, pairs, weights = paired
        for kern, cp in ((kernels, pairs), (complex_kernels, None)):
            with backend.use_backend("numpy"):
                o1, l1, gm1, gw1 = _loss_and_grads(kern, weights, conj_pairs=cp)
            with backend.use_backend("torch"):
                o2, l2, gm2, gw2 = _loss_and_grads(kern, weights, conj_pairs=cp)
            np.testing.assert_allclose(o2, o1, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(l2, l1, rtol=1e-8)
            np.testing.assert_allclose(gm2, gm1, rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(gw2, gw1, rtol=1e-8, atol=1e-8)


# ----------------------------------------------------------------------
# backend protocol mechanics (selection, transfer, primitives)
# ----------------------------------------------------------------------
class TestBackendProtocol:
    def test_registry_and_availability(self):
        names = backend.registered_backends()
        for expected in ("numpy", "strict", "torch"):
            assert expected in names
        avail = backend.available_backends()
        assert "numpy" in avail and "strict" in avail

    def test_host_singleton_is_numpy_backend(self):
        assert backend.get_backend("numpy") is backend.HOST
        assert isinstance(backend.HOST, backend.NumpyBackend)

    def test_use_backend_restores_previous(self):
        before = backend.active_backend().name
        with backend.use_backend("strict") as bk:
            assert bk.name == "strict"
            assert backend.active_backend() is bk
        assert backend.active_backend().name == before

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            backend.get_backend("no-such-backend")

    def test_env_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "strict")
        assert backend.env_default_backend() == "strict"
        monkeypatch.delenv("REPRO_BACKEND")
        assert backend.env_default_backend() == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError):
            backend.env_default_backend()

    def test_describe_names_active_backend(self):
        with backend.use_backend("strict"):
            assert backend.describe()["backend"] == "strict"
        assert backend.describe()["backend"] == backend.active_backend().name

    def test_coerce_host_policy(self, bk_name):
        bk = backend.active_backend()
        assert bk.coerce_host([1, 2, 3]).dtype == np.float64
        assert bk.coerce_host(np.ones(3, np.complex64)).dtype == np.complex128

    def test_primitives_match_numpy(self, bk_name):
        """Transfer roundtrip, abs2, fft2/ifft2, fftfreq, freq_reverse."""
        bk = backend.active_backend()
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))
        dev = bk.from_host(x)
        np.testing.assert_array_equal(bk.to_host(dev), x)
        np.testing.assert_allclose(
            bk.to_host(bk.abs2(dev)), (x * np.conj(x)).real, atol=1e-13
        )
        np.testing.assert_allclose(
            bk.to_host(bk.fft2(dev)), np.fft.fft2(x), atol=1e-9
        )
        np.testing.assert_allclose(
            bk.to_host(bk.ifft2(bk.fft2(dev))), x, atol=1e-12
        )
        np.testing.assert_allclose(
            bk.to_host(bk.fftfreq(N, d=0.5)), np.fft.fftfreq(N, d=0.5),
            atol=1e-15,
        )
        np.testing.assert_array_equal(
            bk.to_host(bk.freq_reverse(bk.from_host(x.real))),
            fftlib.freq_reverse(x.real),
        )
        z = bk.to_host(bk.zeros((3, 4), bk.complex128))
        assert z.shape == (3, 4) and z.dtype == np.complex128 and not z.any()
