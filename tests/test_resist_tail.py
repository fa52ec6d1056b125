"""The fused resist tail: ``F.resist_corner_losses``.

Every SMO loss below the aerial images is one node that returns the
``(C, B)`` per-corner, per-tile squared resist errors and keeps each
corner's sigmoid, so its first and second derivatives are closed forms
over that cache.  These tests pin it to the composed ``dose_resist``
chain (the Eq. (7)-(8) reference formula): the corner matrix bit for
bit, and within 1e-12 relative the value, gradient, the tail-only
``G' = (d^2 T / dA^2) A_delta`` product and BiSMO's exact oracles, on
the paper window and on a 3 x 2 dose x focus window with per-corner
resist thresholds, for every robust reduction, one tile and a stack.
The tail differentiates twice: a ``create_graph`` backward through its
recorded gradient node is refused by name, and the composed chain's
third derivative is checked against central differences of the tail's
HVP.  An ``expit`` counter pins
the mechanism: no HVP re-evaluates a sigmoid on an aerial-sized array.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import (
    OpticalConfig,
    ProcessCorner,
    ProcessWindow,
    SourceGrid,
    annular,
)
from repro.smo import ProcessWindowSMOObjective, init_theta_mask, init_theta_source
from repro.smo import objective as objective_module
from repro.smo.bismo import HypergradientContext
from repro.smo.objective import dose_resist, robust_corner_loss
from repro.utils.seed import seeded_rng

RTOL = 1e-12


def _composed_corner_terms(aerials, target, window, config):
    """The per-corner composed chain: ``dose_resist``, square, sum."""
    fidx = window.condition_index()
    losses, rows = [], []
    for c, corner in enumerate(window.corners):
        z = dose_resist(
            aerials[int(fidx[c])], config, corner.dose, corner.intensity_threshold
        )
        sq = F.power(F.sub(z, target), 2.0)
        losses.append(F.sum(sq))
        rows.append(sq.data.sum(axis=(-2, -1)).reshape(-1))
    return losses, np.asarray(rows)


def _window(kind: str, cfg: OpticalConfig) -> ProcessWindow:
    if kind == "paper":
        return ProcessWindow.from_config(cfg)
    corners = []
    for i, dose in enumerate((0.97, 1.0, 1.03)):
        for j, focus in enumerate((0.0, 40.0)):
            corners.append(
                ProcessCorner(
                    dose, focus, weight=1.0 + i + 0.5 * j,
                    intensity_threshold=0.2 + 0.01 * (2 * i + j),
                )
            )
    return ProcessWindow(tuple(corners))


def _objective(cfg, target, kind, robust):
    obj = ProcessWindowSMOObjective(
        cfg, target, _window(kind, cfg), robust=robust, tau=50.0
    )
    if obj.adaptive_weights is not None:  # move off the static weights
        obj.adaptive_weights.update(np.arange(1.0, obj.window.num_corners + 1))
    return obj


def _tail(obj, aerials, composed):
    """The objective's loss tail with the fused or the composed corners."""
    terms = objective_module._corner_loss_terms
    if composed:
        terms = _composed_corner_terms
    losses, matrix = terms(aerials, obj.target, obj.window, obj.config)
    total = robust_corner_loss(
        losses, obj.window, obj.robust, obj.tau, obj._robust_weights()
    )
    return total, matrix


def _sum_dots(grads, vecs):
    total = None
    for g, v in zip(grads, vecs):
        term = F.dot(g, ad.Tensor(v))
        total = term if total is None else F.add(total, term)
    return total


def _close(actual, expected, rtol=RTOL):
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(float(np.abs(expected).max()), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


CASES = [
    (kind, robust, tiles)
    for kind in ("paper", "grid")
    for robust in ("sum", "max", "adaptive")
    for tiles in (None, 3)
]


def _case(cfg, kind, robust, tiles):
    rng = seeded_rng("resist-tail", kind, robust, tiles or 0)
    n = cfg.mask_size
    shape = (n, n) if tiles is None else (tiles, n, n)
    target = (rng.random(shape) > 0.6).astype(np.float64)
    obj = _objective(cfg, target, kind, robust)
    conditions = len(obj.window.conditions())
    aerials = [0.45 * rng.random(shape) for _ in range(conditions)]
    dirs = [[rng.standard_normal(shape) for _ in aerials] for _ in range(2)]
    return obj, aerials, dirs


@pytest.mark.parametrize("kind,robust,tiles", CASES)
def test_tail_matches_composed_chain(tiny_config, kind, robust, tiles):
    """Value, (C, B) matrix, gradient and the tail-only G' product."""
    obj, aerials, (delta, _) = _case(tiny_config, kind, robust, tiles)
    out = []
    for composed in (False, True):
        leaves = [ad.Tensor(a, requires_grad=True) for a in aerials]
        total, matrix = _tail(obj, leaves, composed)
        grads = ad.grad(total, leaves, create_graph=True)
        g_prime = ad.grad(_sum_dots(grads, delta), leaves)
        out.append((total.item(), matrix, grads, g_prime))
    (v1, m1, g1, h1), (v2, m2, g2, h2) = out
    _close(v1, v2)
    assert m1.shape == (obj.window.num_corners, tiles or 1)
    np.testing.assert_array_equal(m1, m2)  # the same ops, bit for bit
    for a, b in zip(g1, g2):
        _close(a.data, b.data)
    for a, b in zip(h1, h2):
        _close(a.data, b.data)


@pytest.fixture(scope="module")
def oracle_setup():
    cfg = OpticalConfig.preset("tiny")
    rng = seeded_rng("resist-tail-oracles")
    n = cfg.mask_size
    targets = (rng.random((2, n, n)) > 0.6).astype(np.float64)
    source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
    theta_j = init_theta_source(source, cfg) + 0.05 * rng.standard_normal(source.shape)
    theta_m = np.stack([init_theta_mask(t, cfg) for t in targets])
    theta_m = theta_m + 0.3 * rng.standard_normal(theta_m.shape)
    p, w = rng.standard_normal((2,) + theta_j.shape)
    return cfg, targets, theta_j, theta_m, p, w


@pytest.mark.parametrize("kind,robust,tiles", CASES)
def test_bismo_oracles_match_composed_chain(
    oracle_setup, monkeypatch, kind, robust, tiles
):
    """Loss, grad_j, grad_m, the HVP by double backward and mixed_vjp
    from the intensity basis, fused tail vs the composed chain."""
    cfg, targets, theta_j, theta_m, p, w = oracle_setup
    target, tm = (targets[0], theta_m[0]) if tiles is None else (targets, theta_m)
    obj = _objective(cfg, target, kind, robust)
    results = []
    for composed in (False, True):
        if composed:
            monkeypatch.setattr(
                objective_module, "_corner_loss_terms", _composed_corner_terms
            )
        ctx = HypergradientContext(obj.source_only_loss(tm), theta_j)
        results.append(
            (ctx.loss_value, ctx.grad_j, ctx.grad_m, ctx.hvp(p), ctx.mixed_vjp(w))
        )
    for fused, composed in zip(*results):
        _close(fused, composed)


@pytest.mark.parametrize("robust", ["sum", "max"])
@pytest.mark.parametrize("tiles", [None, 3])
def test_third_order_matches_central_differences(tiny_config, robust, tiles):
    """d/du of the composed chain's HVP recorded with create_graph (the
    third-order path the tail's refusal names) == central differences of
    the fused tail's HVP along u."""
    obj, aerials, (v, u) = _case(tiny_config, "grid", robust, tiles)
    leaves = [ad.Tensor(a, requires_grad=True) for a in aerials]
    total, _ = _tail(obj, leaves, True)
    grads = ad.grad(total, leaves, create_graph=True)
    hv = ad.grad(_sum_dots(grads, v), leaves, create_graph=True)
    third = ad.grad(_sum_dots(hv, u), leaves)

    def fused_hvp(points):
        xs = [ad.Tensor(x, requires_grad=True) for x in points]
        t, _ = _tail(obj, xs, False)
        gs = ad.grad(t, xs, create_graph=True)
        return [h.data for h in ad.grad(_sum_dots(gs, v), xs)]

    eps = 1e-5
    plus = fused_hvp([a + eps * d for a, d in zip(aerials, u)])
    minus = fused_hvp([a - eps * d for a, d in zip(aerials, u)])
    for t, hp, hm in zip(third, plus, minus):
        _close(t.data, (hp - hm) / (2.0 * eps), rtol=1e-5)


def test_third_order_is_refused(tiny_config):
    """The tail differentiates twice: a create_graph backward through
    its recorded gradient node raises, naming the node, and the same
    backward without a graph is the HVP."""
    obj, aerials, (v, _) = _case(tiny_config, "grid", "max", 3)
    leaves = [ad.Tensor(a, requires_grad=True) for a in aerials]
    total, _ = _tail(obj, leaves, False)
    grads = ad.grad(total, leaves, create_graph=True)
    with pytest.raises(NotImplementedError) as err:
        ad.grad(_sum_dots(grads, v), leaves, create_graph=True)
    for text in ("resist_corner_grad", "twice, not three times"):
        assert text in str(err.value)
    hv = ad.grad(_sum_dots(grads, v), leaves)
    assert all(np.all(np.isfinite(h.data)) for h in hv)


def test_validation():
    z = np.zeros((4, 4))
    args = ([0], [1.0], [0.2], 30.0)
    with pytest.raises(ValueError, match="shape"):
        F.resist_corner_losses([np.zeros((3, 3))], z, *args)
    with pytest.raises(ValueError, match="condition indices"):
        F.resist_corner_losses([z], z, [1], [1.0], [0.2], 30.0)
    with pytest.raises(TypeError, match="real"):
        F.resist_corner_losses([z + 0j], z, *args)
    with pytest.raises(ValueError, match="target"):
        F.resist_corner_losses([z], ad.Tensor(z, requires_grad=True), *args)


def test_sigmoid_graph_free_vjp_is_bitwise_the_recorded_one():
    rng = seeded_rng("sigmoid-vjp")
    x = ad.Tensor(4.0 * rng.standard_normal((5, 7)), requires_grad=True)
    g = ad.Tensor(np.linspace(-1.0, 2.0, 35).reshape(5, 7))
    (plain,) = ad.grad(F.sigmoid(x), [x], grad_output=g)
    (recorded,) = ad.grad(F.sigmoid(x), [x], grad_output=g, create_graph=True)
    assert plain.data.tobytes() == recorded.data.tobytes()


class TestExpitCalls:
    """The mechanism, on ``bismo-joint``-shaped inputs (``default``, 4
    tiles): a loss evaluation runs one ``expit`` per corner on the
    aerial-sized arrays, and an exact HVP runs none."""

    @pytest.fixture(scope="class")
    def joint(self):
        cfg = OpticalConfig.preset("default")
        rng = seeded_rng("expit-calls")
        n = cfg.mask_size
        targets = (rng.random((4, n, n)) > 0.6).astype(np.float64)
        source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
        theta_j = init_theta_source(source, cfg)
        theta_m = np.stack([init_theta_mask(t, cfg) for t in targets])
        obj = ProcessWindowSMOObjective(cfg, targets)
        basis = obj.source_only_loss(theta_m)
        ctx = HypergradientContext(basis, theta_j)
        return targets.shape, theta_j, basis, ctx

    @staticmethod
    def _count(monkeypatch):
        shapes = []
        original = F.expit

        def counting(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(F, "expit", counting)
        return shapes

    def test_loss_evaluation_and_inner_step(self, joint, monkeypatch):
        shape, theta_j, basis, _ = joint
        shapes = self._count(monkeypatch)
        tj = ad.Tensor(theta_j, requires_grad=True)
        loss = basis(tj)
        assert shapes.count(shape) == 3  # C = 3 corners
        ad.grad(loss, [tj])  # the backward reads the cached sigmoids
        assert shapes.count(shape) == 3

    def test_exact_hvp_runs_no_expit(self, joint, monkeypatch):
        _, theta_j, _, ctx = joint
        shapes = self._count(monkeypatch)
        ctx.hvp(np.ones_like(theta_j))
        assert shapes == []
