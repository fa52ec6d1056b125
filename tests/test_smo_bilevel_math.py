"""Bilevel hypergradient math on a quadratic toy with a closed form.

L(j, m) = 0.5 j^T A j + j^T B m + 0.5 m^T C m + d^T m   (A SPD)

Inner optimum: j*(m) = -A^{-1} B m.  The IFT hypergradient at any
evaluation point (j, m) is

    hyper = dL/dm - B^T A^{-1} dL/dj
          = (B^T j + C m + d) - B^T A^{-1} (A j + B m)

BiSMO-CG and safeguarded BiSMO-NMN must converge to this analytic value;
BiSMO-FD must equal the K=0 Neumann approximation.  These tests run the
three strategy functions exactly as the real solver does, on the
composed reference context (``tests/oracles.py``), on a problem whose
answer we can write down.
"""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.smo.cg import cg_hypergradient
from repro.smo.fd import fd_hypergradient
from repro.smo.nmn import neumann_hypergradient
from tests.oracles import composed_context


class QuadraticObjective:
    """Duck-typed objective compatible with the composed reference
    context."""

    def __init__(self, n=4, seed=0, curvature=1.0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        self.a = curvature * (a @ a.T + n * np.eye(n))  # SPD, well conditioned
        self.b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        self.c = c @ c.T + n * np.eye(n)
        self.d = rng.standard_normal(n)
        self.n = n

    def loss(self, tj: ad.Tensor, tm: ad.Tensor) -> ad.Tensor:
        jc = F.reshape(tj, (self.n, 1))
        mc = F.reshape(tm, (self.n, 1))
        at, bt, ct = ad.Tensor(self.a), ad.Tensor(self.b), ad.Tensor(self.c)
        dt = ad.Tensor(self.d.reshape(self.n, 1))
        term_j = F.mul(F.sum(F.mul(jc, F.matmul(at, jc))), 0.5)
        term_jm = F.sum(F.mul(jc, F.matmul(bt, mc)))
        term_m = F.mul(F.sum(F.mul(mc, F.matmul(ct, mc))), 0.5)
        term_d = F.sum(F.mul(dt, mc))
        return F.add(F.add(term_j, term_jm), F.add(term_m, term_d))

    def analytic_hypergradient(self, j: np.ndarray, m: np.ndarray) -> np.ndarray:
        gm = self.b.T @ j + self.c @ m + self.d
        gj = self.a @ j + self.b @ m
        return gm - self.b.T @ np.linalg.solve(self.a, gj)


@pytest.fixture()
def toy():
    return QuadraticObjective(n=4, seed=3)


@pytest.fixture()
def point(toy):
    rng = np.random.default_rng(7)
    return rng.standard_normal(toy.n), rng.standard_normal(toy.n)


class TestContext:
    def test_first_order_grads(self, toy, point):
        j, m = point
        ctx = composed_context(toy, j, m)
        np.testing.assert_allclose(ctx.grad_j, toy.a @ j + toy.b @ m, atol=1e-10)
        np.testing.assert_allclose(
            ctx.grad_m, toy.b.T @ j + toy.c @ m + toy.d, atol=1e-10
        )

    def test_hvp_is_inner_hessian(self, toy, point):
        j, m = point
        ctx = composed_context(toy, j, m)
        v = np.random.default_rng(0).standard_normal(toy.n)
        np.testing.assert_allclose(ctx.hvp(v), toy.a @ v, atol=1e-10)

    def test_mixed_vjp_is_b_transpose(self, toy, point):
        j, m = point
        ctx = composed_context(toy, j, m)
        w = np.random.default_rng(1).standard_normal(toy.n)
        np.testing.assert_allclose(ctx.mixed_vjp(w), toy.b.T @ w, atol=1e-10)

    def test_loss_value_recorded(self, toy, point):
        ctx = composed_context(toy, point[0], point[1])
        with ad.no_grad():
            expected = toy.loss(ad.Tensor(point[0]), ad.Tensor(point[1])).item()
        assert ctx.loss_value == pytest.approx(expected)


class TestHypergradientStrategies:
    def test_cg_converges_to_analytic(self, toy, point):
        j, m = point
        ctx = composed_context(toy, j, m)
        hyper, w = cg_hypergradient(ctx, 0.1, terms=toy.n + 2, damping=0.0, warm=None)
        np.testing.assert_allclose(
            hyper, toy.analytic_hypergradient(j, m), atol=1e-8
        )

    def test_cg_warm_start_improves(self, toy, point):
        j, m = point
        ctx = composed_context(toy, j, m)
        # one CG step cold vs one CG step warm-started from the true solve
        v = ctx.grad_j
        w_true = np.linalg.solve(toy.a, v)
        h_cold, _ = cg_hypergradient(ctx, 0.1, terms=1, damping=0.0, warm=None)
        h_warm, _ = cg_hypergradient(ctx, 0.1, terms=1, damping=0.0, warm=w_true)
        truth = toy.analytic_hypergradient(j, m)
        assert np.linalg.norm(h_warm - truth) <= np.linalg.norm(h_cold - truth) + 1e-12

    def test_nmn_converges_with_many_terms(self, toy, point):
        j, m = point
        ctx = composed_context(toy, j, m)
        hyper, _ = neumann_hypergradient(ctx, 0.1, terms=400, damping=0.0, warm=None)
        np.testing.assert_allclose(
            hyper, toy.analytic_hypergradient(j, m), atol=1e-5
        )

    def test_nmn_zero_terms_equals_fd(self, toy, point):
        """Section 3.2.4: K = 0 Neumann == finite-difference strategy."""
        j, m = point
        ctx = composed_context(toy, j, m)
        h_nmn, _ = neumann_hypergradient(ctx, 0.1, terms=0, damping=0.0, warm=None)
        h_fd, _ = fd_hypergradient(ctx, 0.1, terms=0, damping=0.0, warm=None)
        np.testing.assert_allclose(h_nmn, h_fd, atol=1e-12)

    def test_fd_formula(self, toy, point):
        """Eq. (13): hyper = gM - xi * B^T gJ for the quadratic toy."""
        j, m = point
        ctx = composed_context(toy, j, m)
        hyper, _ = fd_hypergradient(ctx, 0.1, terms=0, damping=0.0, warm=None)
        gj = toy.a @ j + toy.b @ m
        gm = toy.b.T @ j + toy.c @ m + toy.d
        np.testing.assert_allclose(hyper, gm - 0.1 * (toy.b.T @ gj), atol=1e-10)

    def test_nmn_safeguard_on_stiff_hessian(self, point):
        """With curvature >> 1/xi the raw series would diverge; the
        spectral safeguard must keep the hypergradient finite and close
        to analytic."""
        stiff = QuadraticObjective(n=4, seed=3, curvature=500.0)
        j, m = point
        ctx = composed_context(stiff, j, m)
        hyper, _ = neumann_hypergradient(ctx, 0.1, terms=200, damping=0.0, warm=None)
        assert np.all(np.isfinite(hyper))
        truth = stiff.analytic_hypergradient(j, m)
        # truncated series with a safe small step: approximate, same scale
        assert np.linalg.norm(hyper - truth) < np.linalg.norm(truth)

    def test_all_methods_agree_near_inner_optimum(self, toy):
        """At j = j*(m), all three give descent-compatible directions and
        NMN/CG agree with analytic closely."""
        rng = np.random.default_rng(9)
        m = rng.standard_normal(toy.n)
        j_star = -np.linalg.solve(toy.a, toy.b @ m)
        ctx = composed_context(toy, j_star, m)
        truth = toy.analytic_hypergradient(j_star, m)
        h_cg, _ = cg_hypergradient(ctx, 0.1, terms=toy.n + 2, damping=0.0, warm=None)
        h_nm, _ = neumann_hypergradient(ctx, 0.1, terms=300, damping=0.0, warm=None)
        np.testing.assert_allclose(h_cg, truth, atol=1e-8)
        np.testing.assert_allclose(h_nm, truth, atol=1e-4)
