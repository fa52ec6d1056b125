"""BiSMO's exact oracles from the intensity basis.

The exact hypergradient oracles cut the graph at the aerial image: the
loss, ``grad_j`` and every HVP come from the FFT-free intensity basis,
and the mask side is one streamed mask-adjoint pass.  These tests pin
them against the composed ``create_graph`` oracle
(``tests/oracles.py``'s ``ComposedHypergradientContext`` on objectives
built on the composed-op engine ``ComposedAbbeImaging``), against
central differences, and check that no ``create_graph`` backward runs
through the imaging primitives (the fused primitive refuses one) and
that BiSMO refuses an objective without a basis.  The hypergradient ``grad_m - c * mixed_vjp(w)`` is one
folded mask-adjoint pass; it is pinned against the two-pass form, per
strategy, and by the number of passes a BiSMO run makes.  BiSMO-UNROLL's
reverse sweep over the same oracles is pinned against the graph built
through every inner step on the composed engine.  They also cover the
autodiff pieces underneath: the constant-input skip of the binary ops,
the ``basis_combine``/``basis_contract`` pair and the multi-term
``incoherent_mask_adjoint``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import (
    AbbeImaging,
    OpticalConfig,
    ProcessWindow,
    SourceGrid,
    annular,
    cache,
)
from repro.optics.pupil import pupil_crops
from repro.smo import (
    AbbeMO,
    BiSMO,
    ProcessWindowSMOObjective,
    init_theta_mask,
    init_theta_source,
)
from repro.smo.bismo import HypergradientContext
from repro.smo.cg import cg_hypergradient
from repro.smo.fd import fd_hypergradient
from repro.smo.nmn import neumann_hypergradient
from repro.smo.objective import SourceBasisLoss
from repro.utils import memory
from repro.utils.seed import seeded_rng
from tests.oracles import (
    ComposedAbbeImaging,
    ComposedSourceLoss,
    LoopedSMOObjective,
    composed_context,
    run_composed,
    unrolled_hypergradient_composed,
)

RTOL = 1e-10
#: Fused vs two-pass hypergradients: the same terms summed in another
#: order, so only rounding separates them.
FOLD_RTOL = 1e-12


class BasisHidden:
    """An objective with its intensity basis hidden: BiSMO refuses it."""

    def __init__(self, objective):
        self._objective = objective

    def __getattr__(self, name):
        if name == "source_only_loss":
            raise AttributeError(name)
        return getattr(self._objective, name)


class ComposedOnly(ProcessWindowSMOObjective):
    """The objective's twin on the composed-op engine
    (``ComposedAbbeImaging``: whole-grid pupils, every image a composed
    graph) whose ``source_only_loss`` is a ``ComposedSourceLoss``: the
    composed ``create_graph`` oracle."""

    def __init__(self, objective):
        super().__init__(
            objective.config,
            objective.target.data,
            objective.window,
            engine=ComposedAbbeImaging(objective.config),
            robust=objective.robust,
            tau=objective.tau,
        )

    def source_only_loss(self, theta_m):
        return ComposedSourceLoss(self, theta_m)


def _context(objective, theta_j, theta_m):
    """The production context on the objective's intensity basis."""
    return HypergradientContext(objective.source_only_loss(theta_m), theta_j)


def _looped(cfg, targets):
    """The per-tile loop oracle on the composed-op engine."""
    return LoopedSMOObjective(cfg, targets, ComposedAbbeImaging(cfg))


def one_iteration(solver, theta_j, theta_m):
    """One BiSMO outer iteration from ``(theta_j, theta_m)``: the
    hypergradient its strategy returned, ``theta_J^T`` and the recorded
    loss."""
    seen = []
    strategy = solver._hyper_fn

    def spy(ctx, *args):
        hyper, warm = strategy(ctx, *args)
        seen.append(hyper)
        return hyper, warm

    solver._hyper_fn = spy
    result = solver.run(None, iterations=1, theta_m0=theta_m, theta_j0=theta_j)
    (hyper,) = seen
    return hyper, result.theta_j, result.losses[0]


def _setup(preset: str, tiles: int = 2):
    cfg = OpticalConfig.preset(preset)
    rng = seeded_rng("basis-oracles", preset)
    n = cfg.mask_size
    targets = (rng.random((tiles, n, n)) > 0.6).astype(np.float64)
    source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
    theta_j = init_theta_source(source, cfg)
    theta_j = theta_j + 0.05 * rng.standard_normal(source.shape)
    theta_m = np.stack([init_theta_mask(t, cfg) for t in targets])
    theta_m = theta_m + 0.3 * rng.standard_normal(theta_m.shape)
    return cfg, targets, source, theta_j, theta_m


@pytest.fixture(scope="module")
def tiny():
    return _setup("tiny")


WINDOW = ProcessWindow.from_grid((0.97, 1.0, 1.03), (0.0, 40.0))


def _objectives(cfg, targets, theta_m):
    """(name, objective, composed reference, theta_m) per target kind."""
    single = ProcessWindowSMOObjective(cfg, targets[0])
    out = [
        ("single", single, ComposedOnly(single), theta_m[0]),
        (
            "batched",
            ProcessWindowSMOObjective(cfg, targets),
            _looped(cfg, targets),
            theta_m,
        ),
    ]
    for robust in ("sum", "max", "adaptive"):
        pw = ProcessWindowSMOObjective(
            cfg, targets, WINDOW, robust=robust, tau=50.0
        )
        out.append((f"pw-{robust}", pw, ComposedOnly(pw), theta_m))
    pw1 = ProcessWindowSMOObjective(
        cfg, targets[0], WINDOW, robust="max", tau=50.0
    )
    out.append(("pw-single-max", pw1, ComposedOnly(pw1), theta_m[0]))
    return out


def _close(actual, expected):
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(float(np.abs(expected).max()), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


def _rel_err(actual, expected):
    """Largest deviation relative to the largest entry of ``expected``."""
    scale = max(float(np.abs(expected).max()), 1e-300)
    return float(np.abs(actual - expected).max()) / scale


# ----------------------------------------------------------------------
# autodiff pieces
# ----------------------------------------------------------------------
class TestConstantInputSkip:
    @pytest.mark.parametrize("op", [F.add, F.sub, F.mul, F.div, F.matmul])
    def test_binary_vjps_return_none_for_constants(self, op):
        rng = seeded_rng("constant-skip")
        a = ad.Tensor(rng.random((3, 3)) + 1.0, requires_grad=True)
        b = ad.Tensor(rng.random((3, 3)) + 1.0)
        g = ad.Tensor(np.ones((3, 3)))
        ga, gb = op(a, b)._vjp(g)
        assert ga is not None and gb is None
        ga, gb = op(b, a)._vjp(g)
        assert ga is None and gb is not None

    def test_double_backward_unchanged(self):
        """The skip drops only gradients ``grad`` would discard."""
        x = ad.Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True)
        c = ad.Tensor(np.array([2.0, 3.0, 5.0]))
        loss = F.sum(F.mul(F.div(F.mul(x, x), c), F.sub(x, c)))
        (g,) = ad.grad(loss, [x], create_graph=True)
        v = np.array([1.0, -2.0, 0.5])
        (h,) = ad.grad(F.dot(g, ad.Tensor(v)), [x])
        xd, cd = x.data, c.data
        hess_diag = (6.0 * xd - 2.0 * cd) / cd
        np.testing.assert_allclose(h.data, hess_diag * v, rtol=1e-12)


class TestBasisOps:
    def _basis(self, b=2, s=5, n=4):
        rng = seeded_rng("basis-ops", b, s, n)
        return ad.Tensor(rng.random((b, s, n, n))), rng

    def test_values_and_adjoint_identity(self):
        basis, rng = self._basis()
        w = rng.standard_normal(5)
        g = rng.standard_normal((2, 4, 4))
        combined = F.basis_combine(basis, w).data
        np.testing.assert_allclose(
            combined, np.einsum("bsij,s->bij", basis.data, w), rtol=1e-13
        )
        contracted = F.basis_contract(basis, g).data
        np.testing.assert_allclose(
            contracted, np.einsum("bsij,bij->s", basis.data, g), rtol=1e-13
        )
        assert np.vdot(combined, g) == pytest.approx(
            np.vdot(w, contracted), rel=1e-13
        )

    def test_gradcheck(self):
        basis, rng = self._basis()
        w = ad.Tensor(rng.standard_normal(5))
        g = ad.Tensor(rng.standard_normal((2, 4, 4)))
        assert ad.gradcheck(
            lambda t: F.sum(F.power(F.basis_combine(basis, t), 3.0)), [w]
        )
        assert ad.gradcheck(
            lambda t: F.sum(F.exp(F.basis_contract(basis, t))), [g]
        )

    def test_double_backward(self):
        """Exact HVPs through both ops (each one's VJP is the other)."""
        basis, rng = self._basis()
        x = basis.data.reshape(2, 5, 16)
        w0 = rng.standard_normal(5)
        v = rng.standard_normal(5)
        assert np.allclose(
            ad.hvp(lambda t: F.sum(F.power(F.basis_combine(basis, t), 2.0)),
                   ad.Tensor(w0), ad.Tensor(v)).data,
            2.0 * np.einsum("bsp,btp,t->s", x, x, v),
            rtol=1e-12,
        )
        g0 = rng.standard_normal((2, 4, 4))
        u = rng.standard_normal((2, 4, 4))
        hv = ad.hvp(
            lambda t: F.sum(F.power(F.basis_contract(basis, t), 2.0)),
            ad.Tensor(g0), ad.Tensor(u),
        ).data
        expected = 2.0 * np.einsum(
            "bsp,s->bp", x, np.einsum("csp,cp->s", x, u.reshape(2, 16))
        ).reshape(2, 4, 4)
        np.testing.assert_allclose(hv, expected, rtol=1e-12)

    def test_rejects_a_differentiable_basis(self):
        basis, _ = self._basis()
        leaf = ad.Tensor(basis.data, requires_grad=True)
        with pytest.raises(ValueError):
            F.basis_combine(leaf, np.ones(5))
        with pytest.raises(ValueError):
            F.basis_combine(basis, np.ones(4))


class TestMaskAdjoint:
    @pytest.mark.parametrize("batched", [False, True])
    def test_terms_fold_into_one_pass(self, tiny_config, batched):
        """The multi-term adjoint equals the sum of one-term adjoints,
        and a one-term adjoint equals the stack primitive's VJP."""
        cfg = tiny_config
        engine = AbbeImaging(cfg)
        pairs = engine.condition_stacks((0.0, 40.0))
        stacks = [st for st, _ in pairs]
        conj = [cp for _, cp in pairs]
        rng = seeded_rng("mask-adjoint", batched)
        n = cfg.mask_size
        shape = (2, n, n) if batched else (n, n)
        mask = rng.random(shape)
        s = stacks[0].shape[0]
        terms = [
            (rng.random(s), rng.standard_normal((2,) + shape)),
            (rng.standard_normal(s), rng.standard_normal((2,) + shape)),
        ]
        c = engine.pupil_centres
        both = F.incoherent_mask_adjoint(
            mask, stacks, terms, conj_pairs=conj, centres=c
        )
        parts = [
            F.incoherent_mask_adjoint(mask, stacks, [t], conj_pairs=conj, centres=c)
            for t in terms
        ]
        np.testing.assert_allclose(
            both, parts[0] + parts[1], rtol=1e-11, atol=1e-12
        )
        m = ad.Tensor(mask, requires_grad=True)
        w, g = terms[0]
        out = F.incoherent_image_stack(m, stacks, w, conj_pairs=conj, centres=c)
        (gm,) = ad.grad(out, [m], grad_output=ad.Tensor(g))
        np.testing.assert_allclose(parts[0], gm.data, rtol=1e-11, atol=1e-12)

    def test_shape_validation(self, tiny_config):
        engine = AbbeImaging(tiny_config)
        (stack, _), = engine.condition_stacks((0.0,))
        n = tiny_config.mask_size
        with pytest.raises(ValueError):
            F.incoherent_mask_adjoint(
                np.ones((n, n)), [stack],
                [(np.ones(stack.shape[0]), np.ones((2, n, n)))], [None],
            )


# ----------------------------------------------------------------------
# oracles vs the composed create_graph oracle and central differences
# ----------------------------------------------------------------------
class TestOracleParity:
    def test_source_only_loss_is_a_basis_object(self, tiny):
        cfg, targets, _, theta_j, theta_m = tiny
        single = ProcessWindowSMOObjective(cfg, targets[0])
        basis = single.source_only_loss(theta_m[0])
        assert isinstance(basis, SourceBasisLoss)
        assert basis.bases[0].shape[0] == 1
        with ad.no_grad():
            full = single.loss(ad.Tensor(theta_j), ad.Tensor(theta_m[0])).item()
            fast = basis(ad.Tensor(theta_j)).item()
        assert fast == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("kw", [{}, dict(process_window=WINDOW)])
    def test_wrongly_shaped_theta_m_raises(self, tiny, kw):
        """The exact oracles never call ``loss()``, so the basis factory
        keeps its theta_M shape check: one mask must not be silently
        broadcast against every target."""
        cfg, targets, source, _, theta_m = tiny
        solver = BiSMO(cfg, targets, method="nmn", **kw)
        with pytest.raises(ValueError, match="theta_m must be"):
            solver.run(source, iterations=1, theta_m0=theta_m[0])

    def test_stacked_theta_m_on_one_target_raises(self, tiny):
        """A ``(3, N, N)`` theta_M must not broadcast against one
        ``(N, N)`` target: three masks optimized for one clip."""
        cfg, targets, source, _, theta_m = tiny
        stacked = np.concatenate([theta_m, theta_m[:1]])
        with pytest.raises(ValueError, match="theta_m must be"):
            BiSMO(cfg, targets[0], method="nmn").run(
                source, iterations=1, theta_m0=stacked
            )
        with pytest.raises(ValueError, match="theta_m must be"):
            AbbeMO(cfg, targets[0], source).run(iterations=1, theta_m0=stacked)

    def test_oracles_match_composed(self, tiny):
        cfg, targets, _, theta_j, theta_m = tiny
        rng = seeded_rng("oracle-parity")
        p = rng.standard_normal(theta_j.shape)
        w = rng.standard_normal(theta_j.shape)
        for name, objective, reference, tm in _objectives(cfg, targets, theta_m):
            ctx = _context(objective, theta_j, tm)
            ref = composed_context(reference, theta_j, tm)
            _close(ctx.loss_value, ref.loss_value)
            _close(ctx.grad_j, ref.grad_j)
            _close(ctx.grad_m, ref.grad_m)
            _close(ctx.hvp(p), ref.hvp(p))
            _close(ctx.mixed_vjp(w), ref.mixed_vjp(w))
            for c in (1.0, 0.1):
                _close(
                    ctx.mixed_vjp(w, direct=c),
                    ref.grad_m - c * ref.mixed_vjp(w),
                )

    @pytest.mark.parametrize("robust", ["sum", "max"])
    def test_mixed_vjp_matches_central_differences(self, tiny, robust):
        """(d^2 L / d theta_M d theta_J) w == d/dh grad_m(theta_J + h w)."""
        cfg, targets, _, theta_j, theta_m = tiny
        pw = ProcessWindowSMOObjective(
            cfg, targets, WINDOW, robust=robust, tau=50.0
        )
        w = seeded_rng("mixed-fd").standard_normal(theta_j.shape)
        w /= np.linalg.norm(w)
        mixed = _context(pw, theta_j, theta_m).mixed_vjp(w)
        h = 1e-4
        plus = _context(pw, theta_j + h * w, theta_m).grad_m
        minus = _context(pw, theta_j - h * w, theta_m).grad_m
        fd = (plus - minus) / (2.0 * h)
        assert np.abs(mixed - fd).max() <= 1e-5 * np.abs(mixed).max()


class TestFoldedHypergradient:
    """``mixed_vjp(w, direct=c)`` folds ``grad_m`` into the mixed
    product's mask-adjoint pass: the terms ``(jhat - c delta, G)`` and
    ``(-c jhat, G')`` in place of one pass for ``(jhat, G)`` and one
    for ``(delta, G), (jhat, G')``."""

    @pytest.fixture(scope="class")
    def default2(self):
        return _setup("default")

    def test_fold_equals_two_passes(self, tiny, default2):
        """On every tiny case (K = 14 crops of N = 32) and on a 2-tile
        ``default`` case (K = 56 of N = 128)."""
        cfg, targets, _, theta_j, theta_m = tiny
        cases = [
            (name, objective, theta_j, tm)
            for name, objective, _, tm in _objectives(cfg, targets, theta_m)
        ]
        cfg, targets, _, theta_j, theta_m = default2
        objective = ProcessWindowSMOObjective(cfg, targets)
        cases.append(("default", objective, theta_j, theta_m))
        for name, objective, tj, tm in cases:
            ctx = _context(objective, tj, tm)
            w = seeded_rng("fold", name).standard_normal(tj.shape)
            for c in (1.0, 0.1):
                fused = ctx.mixed_vjp(w, direct=c)
                two_pass = ctx.grad_m - c * ctx.mixed_vjp(w)
                assert _rel_err(fused, two_pass) <= FOLD_RTOL, (name, c)

    @pytest.fixture(scope="class")
    def small(self):
        return _setup("small")

    @pytest.mark.parametrize("robust", [None, "sum", "max", "adaptive"])
    def test_each_strategy_folds(self, small, robust):
        """NMN, CG and FD each return the two-pass hypergradient for the
        ``w`` and ``c`` they pass.  CG needs a little damping here: at
        this theta its undamped solve stops on negative curvature at step
        one on the dose x focus window and returns ``w = 0``, against
        which any fold passes."""
        cfg, targets, _, theta_j, theta_m = small
        if robust is None:
            objective = ProcessWindowSMOObjective(cfg, targets)
        else:
            objective = ProcessWindowSMOObjective(
                cfg, targets, WINDOW, robust=robust, tau=50.0
            )
        ctx = _context(objective, theta_j, theta_m)
        fold = ctx.mixed_vjp
        strategies = [
            (neumann_hypergradient, 1.0),
            (cg_hypergradient, 1.0),
            (fd_hypergradient, 0.1),
        ]
        for strategy, c in strategies:
            seen = []

            def spy(w, direct=None):
                seen.append((w.copy(), direct))
                return fold(w, direct=direct)

            ctx.mixed_vjp = spy
            hyper, _ = strategy(ctx, 0.1, 5, 1e-2, None)
            ((w, direct),) = seen
            assert direct == c, strategy.__name__
            assert np.linalg.norm(w) > 0.0, strategy.__name__
            two_pass = ctx.grad_m - c * fold(w)
            assert _rel_err(hyper, two_pass) <= FOLD_RTOL, strategy.__name__


def _two_tail_context(basis, theta_j, p, w):
    """A context's numbers built with the loss tail run twice: once on
    the combined aerials for the HVP graph, and once on leaf copies of
    them for ``G = dT/dA`` and its second backward ``G'``.  Returns
    ``(loss, grad_j, hvp(p), delta, G, G')`` for the mixed product
    along ``w``."""
    tj = ad.Tensor(theta_j, requires_grad=True)
    jn = basis.weights(tj)
    aerials = basis.aerials(jn)
    loss = basis.tail(aerials)
    (gj,) = ad.grad(loss, [tj], create_graph=True)
    (hv,) = ad.grad(F.dot(gj, ad.Tensor(p)), [tj])
    leaves = [ad.Tensor(a.data, requires_grad=True) for a in aerials]
    g = ad.grad(basis.tail(leaves), leaves, create_graph=True)
    u = ad.Tensor(np.zeros(jn.shape), requires_grad=True)
    (jt_u,) = ad.grad(jn, [tj], grad_output=u, create_graph=True)
    (delta,) = ad.grad(F.dot(jt_u, ad.Tensor(w)), [u])
    inner = None
    for gf, a_delta in zip(g, basis.aerials(delta)):
        term = F.dot(gf, a_delta)
        inner = term if inner is None else F.add(inner, term)
    g2 = ad.grad(inner, leaves, allow_unused=True)
    g_prime = [
        np.zeros_like(a.data) if x is None else x.data
        for x, a in zip(g2, leaves)
    ]
    return (
        float(loss.data), gj.data, hv.data, delta.data,
        [x.data for x in g], g_prime,
    )


#: Three pupil conditions: in focus, 40 nm defocus and Z5 astigmatism.
WINDOW3 = ProcessWindow.from_grid(
    (0.97, 1.0, 1.03), (0.0, 40.0), aberrations=({"Z5": 20.0},)
)


class TestOneTailEvaluation:
    """A context evaluates the loss tail once: ``grad_j`` and ``G =
    dT/dA`` come from one backward to ``theta_J`` and the aerials, and
    ``G'`` from a second backward that stops at those aerials.  Every
    number is bitwise the two-evaluation construction's."""

    @pytest.mark.parametrize("robust", ["sum", "max", "adaptive"])
    @pytest.mark.parametrize("window", [None, WINDOW3], ids=["1cond", "3cond"])
    def test_bitwise_equal_to_two_evaluations(
        self, tiny, monkeypatch, window, robust
    ):
        cfg, targets, _, theta_j, theta_m = tiny
        objective = ProcessWindowSMOObjective(
            cfg, targets, window, robust=robust, tau=50.0
        )
        basis = objective.source_only_loss(theta_m)
        rng = seeded_rng("one-tail", robust, window is None)
        p, w = rng.standard_normal((2,) + theta_j.shape)
        calls = []
        tail_node = F.resist_corner_losses

        def counting(*args, **kwargs):
            calls.append(1)
            return tail_node(*args, **kwargs)

        monkeypatch.setattr(F, "resist_corner_losses", counting)
        ctx = HypergradientContext(basis, theta_j)
        assert len(calls) == 1
        (delta, g), (jn, g_prime) = ctx.mixed_terms(w)
        hv = ctx.hvp(p)
        assert len(calls) == 1
        ref = _two_tail_context(basis, theta_j, p, w)
        assert ctx.loss_value == ref[0]
        np.testing.assert_array_equal(ctx.grad_j, ref[1])
        np.testing.assert_array_equal(hv, ref[2])
        np.testing.assert_array_equal(delta, ref[3])
        assert len(g) == len(ref[4]) == len(g_prime) == len(ref[5])
        for actual, expected in zip(g + g_prime, ref[4] + ref[5]):
            np.testing.assert_array_equal(actual, expected)
        np.testing.assert_array_equal(jn, ctx.grad_m_term[0])


class TestOnePassPerIteration:
    """Each outer iteration of the IFT strategies runs one streamed
    mask-adjoint pass: the direct term rides the mixed product's."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]
        adjoint = F.incoherent_mask_adjoint

        def counted(*args, **kwargs):
            count[0] += 1
            return adjoint(*args, **kwargs)

        monkeypatch.setattr(F, "incoherent_mask_adjoint", counted)
        return count

    @pytest.mark.parametrize("method", ["nmn", "cg", "fd"])
    @pytest.mark.parametrize(
        "kw", [{}, dict(process_window=WINDOW, robust="max", robust_tau=50.0)]
    )
    def test_bismo_iteration(self, tiny, passes, method, kw):
        cfg, targets, source, _, _ = tiny
        result = BiSMO(cfg, targets, method=method, terms=2, **kw).run(
            source, iterations=2
        )
        assert len(result.losses) == 2
        assert passes[0] == 2

    def test_grad_m_runs_on_first_read_only(self, tiny, passes):
        cfg, targets, _, theta_j, theta_m = tiny
        objective = ProcessWindowSMOObjective(cfg, targets)
        ctx = _context(objective, theta_j, theta_m)
        assert passes[0] == 0
        grad_m = ctx.grad_m
        assert passes[0] == 1
        assert ctx.grad_m is grad_m
        assert passes[0] == 1
        ref = composed_context(_looped(cfg, targets), theta_j, theta_m)
        _close(grad_m, ref.grad_m)


class TestNoCreateGraphThroughImaging:
    @pytest.mark.parametrize("method", ["nmn", "cg", "fd", "unroll"])
    def test_exact_mode_never_takes_the_composed_fallback(self, tiny, method):
        """Every strategy runs with no ``create_graph`` backward through
        imaging, which the fused primitive refuses."""
        cfg, targets, source, _, _ = tiny
        kinds = [
            dict(target=targets[0]),
            dict(target=targets),
            dict(
                target=targets, process_window=WINDOW, robust="max",
                robust_tau=50.0,
            ),
        ]
        for kw in kinds:
            target = kw.pop("target")
            solver = BiSMO(cfg, target, method=method, terms=2, **kw)
            result = solver.run(source, iterations=2)
            assert np.all(np.isfinite(result.losses))

    def test_composed_reference_on_the_fused_engine_is_refused(self, tiny):
        """The refusal is live: the composed reference context through
        the fused primitive raises, naming the basis and the composed
        oracle."""
        cfg, targets, source, _, _ = tiny
        tm = init_theta_mask(targets[0], cfg)
        hidden = BasisHidden(ProcessWindowSMOObjective(cfg, targets[0]))
        with pytest.raises(NotImplementedError) as err:
            composed_context(hidden, init_theta_source(source, cfg), tm)
        for name in ("create_graph", "SourceBasisLoss", "ComposedAbbeImaging"):
            assert name in str(err.value)

    def test_bismo_refuses_an_objective_without_a_basis(self, tiny):
        """At construction, naming the basis and the composed reference."""
        cfg, targets, _, _, _ = tiny
        hidden = BasisHidden(ProcessWindowSMOObjective(cfg, targets[0]))
        with pytest.raises(TypeError) as err:
            BiSMO(cfg, targets[0], objective=hidden)
        for name in ("SourceBasisLoss", "tests/oracles.py"):
            assert name in str(err.value)


class TestBiSMOTracesMatchComposed:
    """Whole BiSMO runs with the basis oracles stay within 1e-10 of the
    composed-oracle runs: loss traces, per-tile losses and the adaptive
    corner weights."""

    @pytest.fixture(scope="class")
    def small(self):
        return _setup("small")

    @pytest.mark.parametrize(
        "method,kw",
        [
            ("nmn", {}),
            ("cg", {}),
            ("fd", {}),
            (
                "nmn",
                dict(process_window=WINDOW, robust="adaptive", robust_tau=1.0),
            ),
        ],
    )
    def test_traces(self, small, method, kw):
        cfg, targets, source, _, _ = small
        fast = BiSMO(cfg, targets, method=method, terms=3, **kw)
        slow = BiSMO(
            cfg, targets, method=method, terms=3,
            objective=ComposedOnly(fast.objective),
        )
        a = fast.run(source, iterations=3)
        b = run_composed(slow, source, iterations=3)
        _close(a.losses, b.losses)
        for ra, rb in zip(a.history, b.history):
            _close(ra.tile_losses, rb.tile_losses)
            if ra.corner_weights is not None or rb.corner_weights is not None:
                _close(ra.corner_weights, rb.corner_weights)
        _close(a.theta_m, b.theta_m)


class TestUnrollMatchesComposed:
    """BiSMO-UNROLL's reverse sweep over the basis oracles against the
    graph built through every inner step on the composed engine: the
    hypergradient, theta_J^T and the recorded loss, within 1e-10."""

    @pytest.mark.parametrize(
        "preset,tiles,steps", [("tiny", 2, 3), ("small", 2, 3), ("default", 2, 1)]
    )
    def test_matches_reference(self, preset, tiles, steps):
        cfg, targets, _, theta_j, theta_m = _setup(preset, tiles)
        solver = BiSMO(cfg, targets, method="unroll", unroll_steps=steps)
        hyper, theta_jt, loss = one_iteration(solver, theta_j, theta_m)
        reference = ProcessWindowSMOObjective(
            cfg, targets, engine=ComposedAbbeImaging(cfg)
        )
        ref_hyper, ref_jt, ref_loss = unrolled_hypergradient_composed(
            reference, theta_j, theta_m, steps, solver.inner_lr
        )
        assert _rel_err(hyper, ref_hyper) <= RTOL
        assert _rel_err(theta_jt, ref_jt) <= RTOL
        assert loss == pytest.approx(ref_loss, rel=RTOL)


# ----------------------------------------------------------------------
# satellites: sized refusal, deterministic SOCS
# ----------------------------------------------------------------------
class TestSizedRefusal:
    def test_pupil_stack_and_basis_refuse_with_both_sizes(
        self, tiny_config, monkeypatch
    ):
        engine = AbbeImaging(tiny_config)
        grid = SourceGrid.from_config(tiny_config)
        monkeypatch.setattr(memory, "available_bytes", lambda: 1024)
        with pytest.raises(MemoryError, match=r"needs .* but only .*1024 b"):
            pupil_crops(tiny_config, grid)
        masks = np.ones((2, tiny_config.mask_size, tiny_config.mask_size))
        with pytest.raises(MemoryError, match="intensity basis"):
            engine.source_intensity_basis(masks)

    def test_unroll_runs_in_less_than_the_whole_grid_stack(self, monkeypatch):
        """One BiSMO-UNROLL outer iteration at ``default`` (2 tiles) in
        8 MiB: more than the basis (2.9 MB) and the pupil crops (2.8 MB)
        need, less than the whole-grid ``(113, 128, 128)`` pupil stack
        (14.8 MB) a ``create_graph`` backward through imaging needed."""
        cfg, targets, source, _, _ = _setup("default")
        monkeypatch.setattr(memory, "available_bytes", lambda: 8 * 1024**2)
        result = BiSMO(cfg, targets, method="unroll", unroll_steps=1).run(
            source, iterations=1
        )
        assert np.isfinite(result.final_loss)

    def test_streamed_passes_never_check(self, tiny_config, monkeypatch):
        """Inside the streamed passes MemoryError means "halve the chunk";
        the refusal must not fire there."""
        engine = AbbeImaging(tiny_config)
        monkeypatch.setattr(memory, "available_bytes", lambda: 1024)
        n = tiny_config.mask_size
        mask = ad.Tensor(np.full((n, n), 0.5), requires_grad=True)
        source = ad.Tensor(np.ones((tiny_config.source_size,) * 2))
        (g,) = ad.grad(F.sum(engine.aerial(mask, source)), [mask])
        assert np.all(np.isfinite(g.data))

    def test_unknown_memory_never_refuses(self, monkeypatch):
        monkeypatch.setattr(memory, "available_bytes", lambda: None)
        memory.require_memory(1 << 60, "anything")


def test_cold_socs_builds_are_bitwise_equal(tiny_config, tiny_source):
    """A seeded ARPACK start vector makes SOCS decompositions repeat."""
    cache.clear()
    w1, k1, _ = cache.socs(tiny_config, tiny_source, 8)
    cache.clear()
    w2, k2, _ = cache.socs(tiny_config, tiny_source, 8)
    cache.clear()
    assert w1.tobytes() == w2.tobytes()
    assert k1.data.tobytes() == k2.data.tobytes()
