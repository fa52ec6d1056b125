"""Gradcheck every primitive op against central finite differences,
in both real and complex regimes, including broadcasting edge cases."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.autodiff.grad import gradcheck


def _real(shape, seed=0):
    return ad.Tensor(np.random.default_rng(seed).standard_normal(shape))


def _complex(shape, seed=0):
    rng = np.random.default_rng(seed)
    return ad.Tensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestArithmeticGrads:
    def test_add(self):
        gradcheck(lambda a, b: F.sum(F.add(a, b) ** 2), [_real(4), _real(4, 1)])

    def test_add_broadcast(self):
        gradcheck(
            lambda a, b: F.sum(F.add(a, b) ** 2), [_real((3, 4)), _real(4, 1)]
        )

    def test_sub_broadcast_scalar(self):
        gradcheck(lambda a, b: F.sum(F.sub(a, b) ** 2), [_real((2, 3)), _real(())])

    def test_mul(self):
        gradcheck(lambda a, b: F.sum(F.mul(a, b) ** 2), [_real(5), _real(5, 1)])

    def test_mul_complex(self):
        gradcheck(
            lambda a, b: F.sum(F.abs2(F.mul(a, b))), [_complex(4), _complex(4, 1)]
        )

    def test_mul_real_by_complex(self):
        gradcheck(
            lambda a, b: F.sum(F.abs2(F.mul(a, b))), [_real(4), _complex(4, 1)]
        )

    def test_div(self):
        b = ad.Tensor(np.random.default_rng(2).uniform(0.5, 2.0, 4))
        gradcheck(lambda a, b: F.sum(F.div(a, b) ** 2), [_real(4), b])

    def test_div_complex(self):
        b = _complex(4, 3)
        b = ad.Tensor(b.data + 2.0)  # keep away from zero
        gradcheck(lambda a, b: F.sum(F.abs2(F.div(a, b))), [_complex(4), b])

    def test_neg(self):
        gradcheck(lambda a: F.sum(F.neg(a) ** 3), [_real(4)])

    def test_power(self):
        x = ad.Tensor(np.random.default_rng(0).uniform(0.5, 2.0, 5))
        gradcheck(lambda a: F.sum(F.power(a, 2.5)), [x])

    def test_power_negative_exponent(self):
        x = ad.Tensor(np.random.default_rng(0).uniform(0.5, 2.0, 5))
        gradcheck(lambda a: F.sum(F.power(a, -1.0)), [x])


class TestTranscendentalGrads:
    def test_exp(self):
        gradcheck(lambda a: F.sum(F.exp(a)), [_real(4)])

    def test_log(self):
        x = ad.Tensor(np.random.default_rng(0).uniform(0.5, 3.0, 4))
        gradcheck(lambda a: F.sum(F.log(a)), [x])

    def test_sqrt(self):
        x = ad.Tensor(np.random.default_rng(0).uniform(0.5, 3.0, 4))
        gradcheck(lambda a: F.sum(F.sqrt(a)), [x])

    def test_sin_cos(self):
        gradcheck(lambda a: F.sum(F.sin(a) * F.cos(a)), [_real(6)])

    def test_tanh(self):
        gradcheck(lambda a: F.sum(F.tanh(a) ** 2), [_real(4)])

    def test_sigmoid(self):
        gradcheck(lambda a: F.sum(F.sigmoid(a) ** 2), [_real(6)])

    def test_sigmoid_extreme_values_stable(self):
        x = ad.Tensor(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]), requires_grad=True)
        y = F.sigmoid(x)
        assert np.all(np.isfinite(y.data))
        (g,) = ad.grad(F.sum(y), [x])
        assert np.all(np.isfinite(g.data))

    def test_sigmoid_rejects_complex(self):
        with pytest.raises(TypeError):
            F.sigmoid(_complex(3))

    def test_relu(self):
        x = ad.Tensor([-1.0, 2.0, -3.0, 4.0], requires_grad=True)
        (g,) = ad.grad(F.sum(F.relu(x)), [x])
        np.testing.assert_allclose(g.data, [0.0, 1.0, 0.0, 1.0])

    def test_clip_passthrough_gradient(self):
        x = ad.Tensor([-5.0, 0.5, 5.0], requires_grad=True)
        y = F.clip_for_stability(x, -1.0, 1.0)
        np.testing.assert_allclose(y.data, [-1.0, 0.5, 1.0])
        (g,) = ad.grad(F.sum(y), [x])
        np.testing.assert_allclose(g.data, [1.0, 1.0, 1.0])


class TestReductionsAndShaping:
    def test_sum_all(self):
        gradcheck(lambda a: F.sum(a) ** 2, [_real((3, 4))])

    def test_sum_axis_keepdims(self):
        gradcheck(
            lambda a: F.sum(F.sum(a, axis=0, keepdims=True) ** 2), [_real((3, 4))]
        )

    def test_sum_negative_axis(self):
        gradcheck(lambda a: F.sum(F.sum(a, axis=-1) ** 2), [_real((3, 4))])

    def test_sum_multi_axis(self):
        gradcheck(
            lambda a: F.sum(F.sum(a, axis=(0, 2)) ** 2), [_real((2, 3, 4))]
        )

    def test_mean(self):
        x = _real((4, 5))
        assert F.mean(x).item() == pytest.approx(x.data.mean())
        gradcheck(lambda a: F.mean(a) ** 2, [x])

    def test_mean_axis_tuple(self):
        x = _real((2, 3, 4))
        np.testing.assert_allclose(
            F.mean(x, axis=(1, 2)).data, x.data.mean(axis=(1, 2))
        )

    def test_reshape(self):
        gradcheck(lambda a: F.sum(F.reshape(a, (6,)) ** 2), [_real((2, 3))])

    def test_broadcast_to(self):
        gradcheck(
            lambda a: F.sum(F.broadcast_to(a, (4, 3)) ** 2), [_real((1, 3))]
        )

    def test_sum_to_roundtrip(self):
        x = _real((4, 3))
        out = F.sum_to(x, (1, 3))
        np.testing.assert_allclose(out.data, x.data.sum(axis=0, keepdims=True))

    def test_sum_to_noop(self):
        x = _real((2, 2))
        assert F.sum_to(x, (2, 2)) is x

    def test_sum_to_invalid(self):
        with pytest.raises(ValueError):
            F.sum_to(_real(3), (2, 3))


class TestComplexOps:
    def test_real_imag_conj(self):
        z = _complex(5)
        np.testing.assert_allclose(F.real(z).data, z.data.real)
        np.testing.assert_allclose(F.imag(z).data, z.data.imag)
        np.testing.assert_allclose(F.conj(z).data, np.conj(z.data))

    def test_conj_real_passthrough(self):
        x = _real(3)
        assert F.conj(x) is x

    def test_real_grad(self):
        gradcheck(lambda z: F.sum(F.real(z) ** 2), [_complex(4)])

    def test_imag_grad(self):
        gradcheck(lambda z: F.sum(F.imag(z) ** 2), [_complex(4)])

    def test_conj_grad(self):
        gradcheck(lambda z: F.sum(F.abs2(F.conj(z) + 1.0)), [_complex(4)])

    def test_abs2(self):
        gradcheck(lambda z: F.sum(F.abs2(z)), [_complex(5)])

    def test_abs2_real_input(self):
        gradcheck(lambda x: F.sum(F.abs2(x)), [_real(5)])

    def test_absolute(self):
        z = _complex(4)
        np.testing.assert_allclose(
            F.absolute(z).data, np.abs(z.data), rtol=1e-9, atol=1e-9
        )

    def test_make_complex(self):
        gradcheck(
            lambda a, b: F.sum(F.abs2(F.make_complex(a, b) ** 2)),
            [_real(3), _real(3, 1)],
        )


class TestFFT:
    def test_fft2_matches_numpy(self):
        x = _real((4, 4))
        np.testing.assert_allclose(F.fft2(x).data, np.fft.fft2(x.data))

    def test_ifft2_matches_numpy(self):
        z = _complex((4, 4))
        np.testing.assert_allclose(F.ifft2(z).data, np.fft.ifft2(z.data))

    def test_fft_roundtrip(self):
        x = _real((8, 8))
        np.testing.assert_allclose(F.ifft2(F.fft2(x)).data.real, x.data, atol=1e-12)

    def test_fft2_grad_real_input(self):
        gradcheck(lambda x: F.sum(F.abs2(F.fft2(x))), [_real((3, 3))])

    def test_fft2_grad_complex_input(self):
        gradcheck(lambda z: F.sum(F.abs2(F.fft2(z))), [_complex((3, 3))])

    def test_ifft2_grad(self):
        gradcheck(lambda z: F.sum(F.abs2(F.ifft2(z))), [_complex((3, 3))])

    def test_batched_fft_grad(self):
        gradcheck(lambda z: F.sum(F.abs2(F.fft2(z))), [_complex((2, 3, 3))])

    def test_fft_linearity(self):
        a, b = _complex((4, 4), 1), _complex((4, 4), 2)
        lhs = F.fft2(F.add(a, b)).data
        rhs = F.fft2(a).data + F.fft2(b).data
        np.testing.assert_allclose(lhs, rhs)


class TestIndexing:
    def test_getitem_grad(self):
        gradcheck(lambda x: F.sum(F.getitem(x, (slice(0, 2), 1)) ** 2), [_real((3, 3))])

    def test_getitem_fancy_index(self):
        idx = (np.array([0, 2]), np.array([1, 0]))
        gradcheck(lambda x: F.sum(F.getitem(x, idx) ** 2), [_real((3, 3))])

    def test_getitem_complex(self):
        gradcheck(lambda z: F.sum(F.abs2(F.getitem(z, slice(0, 2)))), [_complex(4)])

    def test_scatter_is_adjoint_of_getitem(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        idx = (np.array([0, 2]),)
        scattered = F.scatter(ad.Tensor(x[list(idx[0])]), idx, (3,))
        expected = np.zeros(3)
        expected[[0, 2]] = x[[0, 2]]
        np.testing.assert_allclose(scattered.data, expected)

    def test_scatter_duplicate_indices_accumulate(self):
        idx = (np.array([1, 1]),)
        out = F.scatter(ad.Tensor([2.0, 3.0]), idx, (3,))
        np.testing.assert_allclose(out.data, [0.0, 5.0, 0.0])

    @pytest.mark.parametrize(
        "idx",
        [
            1,
            np.int64(0),
            slice(2, None, -1),
            Ellipsis,
            (None, 1),
            (0, Ellipsis, slice(None, None, 2)),
            (slice(0, 2), np.int32(1), None),
        ],
        ids=["int", "np-int", "slice", "ellipsis", "none", "tuple", "mixed"],
    )
    @pytest.mark.parametrize("make", [_real, _complex], ids=["real", "complex"])
    def test_basic_index_vjp_is_an_add_not_add_at(self, monkeypatch, idx, make):
        """getitem's VJP through a basic index equals the ``np.add.at``
        reference bitwise without calling it: a basic index never
        repeats an element."""
        x = ad.Tensor(make((3, 4, 5)).data, requires_grad=True)
        g = make(x.data[idx].shape, seed=1).data
        expected = np.zeros(x.shape, x.data.dtype)
        np.add.at(expected, idx, g)
        add = np.add

        class NoAddAt:
            def __call__(self, *args, **kwargs):
                return add(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(add, name)

            def at(self, *args, **kwargs):
                raise AssertionError("np.add.at on a basic index")

        monkeypatch.setattr(np, "add", NoAddAt())
        # <x[idx], g> under the repo's convention has gradient g at idx.
        loss = F.sum(F.real(F.mul(F.getitem(x, idx), F.conj(ad.Tensor(g)))))
        (gx,) = ad.grad(loss, [x])
        monkeypatch.undo()
        assert gx.data.dtype == expected.dtype
        assert np.array_equal(gx.data, expected)

    def test_scatter_grad(self):
        idx = (np.array([0, 2]),)
        gradcheck(lambda x: F.sum(F.scatter(x, idx, (4,)) ** 2), [_real(2)])


class TestMatmulDot:
    def test_matmul_real(self):
        gradcheck(
            lambda a, b: F.sum(F.matmul(a, b) ** 2),
            [_real((2, 3)), _real((3, 2), 1)],
        )

    def test_matmul_complex(self):
        gradcheck(
            lambda a, b: F.sum(F.abs2(F.matmul(a, b))),
            [_complex((2, 2)), _complex((2, 2), 1)],
        )

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            F.matmul(_real(3), _real(3, 1))

    def test_dot_real(self):
        a, b = _real(5), _real(5, 1)
        assert F.dot(a, b).item() == pytest.approx(float(a.data @ b.data))

    def test_dot_complex_is_real_pairing(self):
        a, b = _complex(4), _complex(4, 1)
        expected = float(
            (a.data.real * b.data.real + a.data.imag * b.data.imag).sum()
        )
        assert F.dot(a, b).item() == pytest.approx(expected)


class TestConstructors:
    def test_zeros_ones(self):
        assert F.zeros((2, 2)).data.sum() == 0
        assert F.ones((2, 2)).data.sum() == 4

    def test_zeros_like_complex(self):
        z = _complex(3)
        assert F.zeros_like(z).is_complex

    def test_ones_like(self):
        np.testing.assert_allclose(F.ones_like(_real((2, 2))).data, np.ones((2, 2)))
