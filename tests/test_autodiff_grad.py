"""Tests for the grad/backward drivers and second-order products."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F


def _quadratic_loss(x):
    """L = sum(sigmoid(x)^3 + x^2) — smooth, non-trivial Hessian."""
    return F.add(F.sum(F.power(F.sigmoid(x), 3.0)), F.sum(F.mul(x, x)))


class TestGradAPI:
    def test_simple_grad(self):
        x = ad.Tensor([1.0, -2.0], requires_grad=True)
        (g,) = ad.grad(F.sum(F.mul(x, x)), [x])
        np.testing.assert_allclose(g.data, [2.0, -4.0])

    def test_multiple_inputs(self):
        a = ad.Tensor([2.0], requires_grad=True)
        b = ad.Tensor([3.0], requires_grad=True)
        ga, gb = ad.grad(F.sum(F.mul(a, b)), [a, b])
        assert ga.data[0] == 3.0
        assert gb.data[0] == 2.0

    def test_non_scalar_needs_grad_output(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            ad.grad(F.mul(x, x), [x])

    def test_explicit_grad_output(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        (g,) = ad.grad(F.mul(x, x), [x], grad_output=ad.Tensor([1.0, 0.5]))
        np.testing.assert_allclose(g.data, [2.0, 2.0])

    def test_unused_input_raises(self):
        x = ad.Tensor([1.0], requires_grad=True)
        y = ad.Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            ad.grad(F.sum(x), [y])

    def test_allow_unused_returns_none(self):
        x = ad.Tensor([1.0], requires_grad=True)
        y = ad.Tensor([1.0], requires_grad=True)
        gx, gy = ad.grad(F.sum(x), [x, y], allow_unused=True)
        assert gy is None
        assert gx.data[0] == 1.0

    def test_grad_of_intermediate(self):
        x = ad.Tensor([2.0], requires_grad=True)
        mid = F.mul(x, 3.0)
        out = F.sum(F.mul(mid, mid))
        (gmid,) = ad.grad(out, [mid])
        assert gmid.data[0] == pytest.approx(12.0)

    def test_diamond_graph_accumulates(self):
        x = ad.Tensor([1.0], requires_grad=True)
        y = F.add(F.mul(x, 2.0), F.mul(x, 3.0))
        (g,) = ad.grad(F.sum(y), [x])
        assert g.data[0] == pytest.approx(5.0)

    def test_same_tensor_used_twice_in_op(self):
        x = ad.Tensor([3.0], requires_grad=True)
        (g,) = ad.grad(F.sum(F.mul(x, x)), [x])
        assert g.data[0] == pytest.approx(6.0)

    def test_complex_leaf_gradient_convention(self):
        # L = |z|^2 => dL/dRe = 2 Re, dL/dIm = 2 Im => grad = 2 z.
        z = ad.Tensor([1.0 + 2.0j], requires_grad=True)
        (g,) = ad.grad(F.sum(F.abs2(z)), [z])
        np.testing.assert_allclose(g.data, [2.0 + 4.0j])

    def test_real_leaf_through_complex_chain_gets_real_grad(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        loss = F.sum(F.abs2(F.fft2(x)))
        (g,) = ad.grad(loss, [x])
        assert not g.is_complex

    def test_create_graph_gives_differentiable_grad(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        (g,) = ad.grad(F.sum(F.power(x, 3.0)), [x], create_graph=True)
        (gg,) = ad.grad(F.sum(g), [x])
        np.testing.assert_allclose(gg.data, 6.0 * x.data)

    def test_without_create_graph_grad_is_leaf(self):
        x = ad.Tensor([1.0], requires_grad=True)
        (g,) = ad.grad(F.sum(F.mul(x, x)), [x])
        assert g._vjp is None


class TestBackward:
    def test_backward_populates_leaves(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        ad.backward(F.sum(F.mul(x, x)))
        np.testing.assert_allclose(x.grad.data, [2.0, 4.0])

    def test_backward_non_scalar_raises(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(F.mul(x, x))


class TestSecondOrder:
    def test_hvp_matches_fd(self, rng):
        x = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        v = ad.Tensor(rng.standard_normal((3, 3)))
        hv = ad.hvp(_quadratic_loss, x, v)

        def grad_at(data):
            t = ad.Tensor(data, requires_grad=True)
            (g,) = ad.grad(_quadratic_loss(t), [t])
            return g.data

        h = 1e-4 / np.linalg.norm(v.data)
        hv_fd = (grad_at(x.data + h * v.data) - grad_at(x.data - h * v.data)) / (
            2.0 * h
        )
        np.testing.assert_allclose(hv.data, hv_fd, atol=1e-6)

    def test_hvp_on_pure_quadratic_is_exact(self, rng):
        a = rng.standard_normal((4, 4))
        a = a + a.T
        at = ad.Tensor(a)

        def loss(x):
            xc = F.reshape(x, (4, 1))
            return F.mul(F.sum(F.mul(xc, F.matmul(at, xc))), 0.5)

        x = ad.Tensor(rng.standard_normal(4))
        v = rng.standard_normal(4)
        hv = ad.hvp(loss, x, ad.Tensor(v))
        np.testing.assert_allclose(hv.data, a @ v, atol=1e-10)

    @staticmethod
    def _mixed(loss, a, b, v):
        """``(d2 loss / db da) @ v`` by double backward: the gradient in
        ``b`` of ``<d loss / d a, v>`` (None when it does not reach ``b``)."""
        at = ad.Tensor(a.data, requires_grad=True)
        bt = ad.Tensor(b.data, requires_grad=True)
        (ga,) = ad.grad(loss(at, bt), [at], create_graph=True)
        (gb,) = ad.grad(F.dot(ga, v), [bt], allow_unused=True)
        return gb

    def test_mixed_jvp_matches_fd(self, rng):
        def loss(a, b):
            return F.sum(F.power(F.mul(F.sigmoid(a), F.sigmoid(b)), 2.0))

        a = ad.Tensor(rng.standard_normal(5))
        b = ad.Tensor(rng.standard_normal(5))
        v = ad.Tensor(rng.standard_normal(5))
        mj = self._mixed(loss, a, b, v)

        def grad_b_at(a_data):
            bt = ad.Tensor(b.data, requires_grad=True)
            (g,) = ad.grad(loss(ad.Tensor(a_data), bt), [bt])
            return g.data

        h = 1e-4 / np.linalg.norm(v.data)
        mj_fd = (grad_b_at(a.data + h * v.data) - grad_b_at(a.data - h * v.data)) / (
            2.0 * h
        )
        np.testing.assert_allclose(mj.data, mj_fd, atol=1e-6)

    def test_mixed_jvp_decoupled_is_zero(self, rng):
        """The gradient of a decoupled loss in ``a`` never reaches ``b``."""

        def loss(a, b):
            return F.add(F.sum(F.mul(a, a)), F.sum(F.mul(b, b)))

        a = ad.Tensor(rng.standard_normal(3))
        b = ad.Tensor(rng.standard_normal(3))
        assert self._mixed(loss, a, b, ad.Tensor(np.ones(3))) is None


class TestGradcheckHarness:
    def test_gradcheck_passes_correct_grad(self):
        x = ad.Tensor([0.3, -0.7])
        assert ad.gradcheck(lambda t: F.sum(F.sigmoid(t)), [x])

    def test_gradcheck_catches_wrong_grad(self):
        # exp's VJP is correct; fake a wrong function via clip (identity
        # gradient) composed where a true gradient would differ.
        x = ad.Tensor([0.5, 1.5])
        with pytest.raises(AssertionError):
            ad.gradcheck(
                lambda t: F.sum(F.clip_for_stability(F.mul(t, t), -100.0, 0.5)), [x]
            )

    def test_numerical_gradient_complex(self):
        z = ad.Tensor([0.2 + 0.4j])
        num = ad.numerical_gradient(lambda t: F.sum(F.abs2(t)), [z], 0)
        np.testing.assert_allclose(num, 2.0 * z.data, atol=1e-6)
