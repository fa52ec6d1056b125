"""Process-window condition axis: config objects, the fused
``incoherent_image_stack`` primitive, the robust objectives (weighted
sum + smooth worst case) against per-corner reference loops, BiSMO
hypergradients through the condition axis, the windowed Hopkins path,
and the harness report."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.autodiff.grad import gradcheck
from repro.layouts import Clip
from repro.metrics import pvb_band_nm2, pvb_band_pixels, pvb_nm2
from repro.optics import (
    AbbeImaging,
    HopkinsImaging,
    OpticalConfig,
    ProcessCorner,
    ProcessWindow,
    cache,
)
from repro.smo import (
    AbbeMO,
    BiSMO,
    HopkinsMOObjective,
    ProcessWindowSMOObjective,
    init_theta_mask,
    init_theta_source,
    mask_from_theta,
    source_from_theta,
)
from repro.smo.bismo import HypergradientContext
from tests.oracles import (
    ComposedAbbeImaging,
    FullGridAbbeImaging,
    composed_condition_stack,
    incoherent_image_composed,
    per_condition_loss,
    per_corner_losses,
    smo_loss_from_aerial,
)

S, N = 6, 12


# ----------------------------------------------------------------------
# ProcessWindow / ProcessCorner value objects
# ----------------------------------------------------------------------
class TestProcessWindowConfig:
    def test_corner_validation(self):
        with pytest.raises(ValueError):
            ProcessCorner(dose=0.0)
        with pytest.raises(ValueError):
            ProcessCorner(weight=-1.0)
        assert ProcessCorner(0.98, 40.0).label == "d0.98/f40nm"

    def test_window_needs_corners(self):
        with pytest.raises(ValueError):
            ProcessWindow(corners=())

    def test_from_grid_shapes_and_order(self):
        pw = ProcessWindow.from_grid((0.96, 1.04), (0.0, 50.0))
        assert pw.num_corners == 4
        np.testing.assert_array_equal(pw.doses, [0.96, 0.96, 1.04, 1.04])
        assert [ab.defocus_nm for ab in pw.conditions()] == [0.0, 50.0]
        np.testing.assert_array_equal(pw.condition_index(), [0, 1, 0, 1])

    def test_from_grid_weight_validation(self):
        with pytest.raises(ValueError):
            ProcessWindow.from_grid((1.0,), (0.0,), weights=(1.0, 2.0))
        pw = ProcessWindow.from_grid((0.98, 1.02), weights=(2.0, 3.0))
        np.testing.assert_array_equal(pw.weights, [2.0, 3.0])

    def test_from_config_is_paper_window(self, tiny_config):
        pw = ProcessWindow.from_config(tiny_config)
        assert pw.labels == ("nominal", "dose-", "dose+")
        np.testing.assert_array_equal(
            pw.doses, [1.0, tiny_config.dose_min, tiny_config.dose_max]
        )
        np.testing.assert_array_equal(
            pw.weights,
            [tiny_config.gamma, tiny_config.eta, tiny_config.eta],
        )
        assert [ab.is_null for ab in pw.conditions()] == [True]
        assert tiny_config.process_window() == pw

    def test_hashable_and_picklable(self):
        pw = ProcessWindow.from_grid((0.98, 1.02), (0.0, 40.0))
        assert hash(pw) == hash(pickle.loads(pickle.dumps(pw)))
        assert pickle.loads(pickle.dumps(pw)) == pw


# ----------------------------------------------------------------------
# the fused multi-stack primitive
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stacks():
    rng = np.random.default_rng(7)
    real = rng.standard_normal((S, N, N)) * 0.4
    cplx = real * np.exp(1j * rng.standard_normal((N, N)))[None]
    return [real, cplx]


@pytest.fixture(scope="module")
def weights():
    return np.linspace(1.0, 0.3, S)


class TestIncoherentImageStack:
    @pytest.mark.parametrize("batch", [False, True])
    def test_matches_per_stack_calls(self, stacks, weights, batch):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, N, N) if batch else (N, N))
        with ad.no_grad():
            out = F.incoherent_image_stack(m, stacks, weights).data
            refs = [
                F.incoherent_image(m, st, weights).data for st in stacks
            ]
        assert out.shape == (len(stacks),) + m.shape
        for fi, ref in enumerate(refs):
            np.testing.assert_allclose(out[fi], ref, atol=1e-12)

    def test_grads_match_composed_sum(self, stacks, weights):
        """Streamed multi-stack VJP == sum of composed per-stack grads."""
        rng = np.random.default_rng(2)
        m = rng.standard_normal((2, N, N))

        def fused(mt, wt):
            out = F.incoherent_image_stack(mt, stacks, wt)
            return F.sum(F.power(out, 2.0))

        def composed(mt, wt):
            total = None
            for st in stacks:
                li = F.sum(F.power(incoherent_image_composed(mt, st, wt), 2.0))
                total = li if total is None else F.add(total, li)
            return total

        grads = []
        for fn in (fused, composed):
            mt = ad.Tensor(m, requires_grad=True)
            wt = ad.Tensor(weights, requires_grad=True)
            gm, gw = ad.grad(fn(mt, wt), [mt, wt])
            grads.append((gm.data, gw.data))
        np.testing.assert_allclose(grads[0][0], grads[1][0], atol=1e-10)
        np.testing.assert_allclose(grads[0][1], grads[1][1], atol=1e-10)

    def test_fd_gradcheck(self, stacks, weights):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((N, N))
        gradcheck(
            lambda mt, wt: F.sum(
                F.power(F.incoherent_image_stack(mt, stacks, wt), 2.0)
            ),
            [ad.Tensor(m), ad.Tensor(weights)],
            eps=1e-6,
            rtol=1e-4,
            atol=1e-6,
        )

    def test_conj_pairs_per_stack(self, tiny_config, tiny_source):
        """Real stack streams with pairing, complex stack without; both
        match the unpaired evaluation exactly."""
        engine = AbbeImaging(tiny_config)
        (s0, p0), (s1, p1) = engine.condition_stacks((0.0, 55.0))
        assert p0 is not None and p1 is None
        rng = np.random.default_rng(4)
        m = rng.standard_normal((tiny_config.mask_size,) * 2)
        j = tiny_source[engine._valid_index]
        j = j / j.sum()
        with ad.no_grad():
            c = engine.pupil_centres
            paired = F.incoherent_image_stack(
                m, [s0, s1], j, conj_pairs=[p0, p1], centres=c
            ).data
            plain = F.incoherent_image_stack(m, [s0, s1], j, centres=c).data
        np.testing.assert_allclose(paired, plain, atol=1e-13)

    def test_unfused_engine_builds_composed_condition_stack(
        self, tiny_config, tiny_source
    ):
        """The fused condition stack equals the composed-op oracle engine
        (one ``incoherent_image_composed`` per condition), gradients
        w.r.t. mask and source included."""
        fused = AbbeImaging(tiny_config)
        composed = ComposedAbbeImaging(tiny_config)
        rng = np.random.default_rng(6)
        m = rng.random((2, tiny_config.mask_size, tiny_config.mask_size))
        focus = (0.0, 55.0)
        outs = []
        for eng in (fused, composed):
            mt = ad.Tensor(m, requires_grad=True)
            st = ad.Tensor(tiny_source, requires_grad=True)
            stack = eng.aerial_conditions(mt, st, focus)
            gm, gs = ad.grad(F.sum(F.power(stack, 2.0)), [mt, st])
            outs.append((stack.data, gm.data, gs.data))
        for a, b in zip(outs[0], outs[1]):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_validation(self, stacks, weights):
        m = np.zeros((N, N))
        with pytest.raises(ValueError):
            F.incoherent_image_stack(m, [], weights)
        with pytest.raises(ValueError):
            F.incoherent_image_stack(m, stacks, weights[:-1])
        with pytest.raises(ValueError):
            F.incoherent_image_stack(m, stacks, weights, conj_pairs=[None])


# ----------------------------------------------------------------------
# robust objectives
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pw_setup():
    cfg = OpticalConfig.preset("tiny")
    rng = np.random.default_rng(11)
    targets = (rng.random((2, cfg.mask_size, cfg.mask_size)) > 0.6).astype(
        np.float64
    )
    from repro.optics import SourceGrid, annular

    source = annular(SourceGrid.from_config(cfg), cfg.sigma_out, cfg.sigma_in)
    theta_j = init_theta_source(source, cfg)
    theta_m = init_theta_mask(targets, cfg)
    window = ProcessWindow.from_grid((0.96, 1.0, 1.04), (0.0, 45.0, 90.0))
    return cfg, targets, source, theta_j, theta_m, window


def _classic_loss(cfg, engine, target):
    """The Eqs. (7)-(8) formula on the engine's own aerial image."""

    def loss(tj: ad.Tensor, tm: ad.Tensor) -> ad.Tensor:
        aerial = engine.aerial(
            mask_from_theta(tm, cfg), source_from_theta(tj, cfg)
        )
        return smo_loss_from_aerial(aerial, ad.Tensor(target), cfg)

    return loss


def _assert_default_window_is_classic(cfg, target, theta_j, theta_m):
    """The default window's loss equals the classic formula to 1e-12
    and its gradients to 1e-10."""
    pwo = ProcessWindowSMOObjective(cfg, target)
    outs = []
    for fn in (pwo.loss, _classic_loss(cfg, pwo.engine, target)):
        tj = ad.Tensor(theta_j, requires_grad=True)
        tm = ad.Tensor(theta_m, requires_grad=True)
        loss = fn(tj, tm)
        gj, gm = ad.grad(loss, [tj, tm])
        outs.append((float(loss.data), gj.data, gm.data))
    np.testing.assert_allclose(outs[0][0], outs[1][0], rtol=1e-12)
    np.testing.assert_allclose(outs[0][1], outs[1][1], atol=1e-10)
    np.testing.assert_allclose(outs[0][2], outs[1][2], atol=1e-10)


class TestProcessWindowObjective:
    def test_default_window_equals_classic_loss(self, pw_setup):
        cfg, targets, _, theta_j, theta_m, _ = pw_setup
        _assert_default_window_is_classic(cfg, targets, theta_j, theta_m)

    def test_single_tile_default_window_is_classic(self, pw_setup):
        cfg, targets, _, theta_j, theta_m, _ = pw_setup
        _assert_default_window_is_classic(cfg, targets[0], theta_j, theta_m[0])

    def test_robust_sum_matches_reference_loop(self, pw_setup):
        """The acceptance bar: fused C-corner loss == per-corner loop to
        1e-10, gradients included."""
        cfg, targets, _, theta_j, theta_m, window = pw_setup
        pwo = ProcessWindowSMOObjective(cfg, targets, window)
        outs = []
        for fn in (pwo.loss, per_condition_loss(pwo)):
            tj = ad.Tensor(theta_j, requires_grad=True)
            tm = ad.Tensor(theta_m, requires_grad=True)
            loss = fn(tj, tm)
            gj, gm = ad.grad(loss, [tj, tm])
            outs.append((float(loss.data), gj.data, gm.data))
        np.testing.assert_allclose(outs[0][0], outs[1][0], rtol=1e-10)
        np.testing.assert_allclose(outs[0][1], outs[1][1], atol=1e-12)
        np.testing.assert_allclose(outs[0][2], outs[1][2], atol=1e-12)

    def test_reference_loop_honors_custom_engine(self, tiny_config, tiny_source):
        """loss_reference must evaluate the objective's own engine (its
        whole-grid pupil stacks), not rebuild cache defaults."""
        cfg = tiny_config
        engine = FullGridAbbeImaging(cfg)
        rng = np.random.default_rng(8)
        target = (rng.random((cfg.mask_size,) * 2) > 0.6).astype(np.float64)
        window = ProcessWindow.from_grid((0.97, 1.03), (0.0, 50.0))
        pwo = ProcessWindowSMOObjective(cfg, target, window, engine=engine)
        tj = init_theta_source(tiny_source, cfg)
        tm = init_theta_mask(target, cfg)
        with ad.no_grad():
            a = float(pwo.loss(ad.Tensor(tj), ad.Tensor(tm)).data)
            b = float(per_condition_loss(pwo)(ad.Tensor(tj), ad.Tensor(tm)).data)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_corner_matrix_consistent_with_loss(self, pw_setup):
        cfg, targets, _, theta_j, theta_m, window = pw_setup
        pwo = ProcessWindowSMOObjective(cfg, targets, window)
        with ad.no_grad():
            loss = float(pwo.loss(ad.Tensor(theta_j), ad.Tensor(theta_m)).data)
        matrix = pwo.last_corner_losses
        assert matrix.shape == (window.num_corners, 2)
        np.testing.assert_allclose(
            loss, float(window.weights @ matrix.sum(axis=1)), rtol=1e-12
        )
        fast = pwo.corner_loss_matrix(theta_j, theta_m)
        np.testing.assert_allclose(fast, matrix, rtol=1e-10)
        np.testing.assert_allclose(
            pwo.last_tile_losses, window.weights @ matrix, rtol=1e-12
        )

    def test_robust_max_bounds_worst_corner(self, pw_setup):
        cfg, targets, _, theta_j, theta_m, window = pw_setup
        pwo = ProcessWindowSMOObjective(cfg, targets, window, robust="max", tau=5.0)
        with ad.no_grad():
            lse = float(pwo.loss(ad.Tensor(theta_j), ad.Tensor(theta_m)).data)
        corner_totals = pwo.last_corner_losses.sum(axis=1)
        assert lse >= corner_totals.max()
        # tau -> 0 tightens onto the hard (weighted) max
        tight = ProcessWindowSMOObjective(
            cfg, targets, window, robust="max", tau=1e-3
        )
        with ad.no_grad():
            lse_tight = float(
                tight.loss(ad.Tensor(theta_j), ad.Tensor(theta_m)).data
            )
        assert abs(lse_tight - corner_totals.max()) < 1.0

    def test_robust_max_gradcheck(self, pw_setup):
        """Directional gradcheck: ``<grad, d>`` against a central
        difference along 8 seeded random unit directions per input (an
        element-wise check of every theta_M pixel is too slow here)."""
        cfg, targets, _, theta_j, theta_m, window = pw_setup
        pwo = ProcessWindowSMOObjective(
            cfg, targets, window, robust="max", tau=50.0
        )
        inputs = [theta_j, theta_m]
        leaves = [ad.Tensor(x, requires_grad=True) for x in inputs]
        grads = ad.grad(pwo.loss(*leaves), leaves)
        eps = 1e-5
        for i, (x, g) in enumerate(zip(inputs, grads)):
            rng = np.random.default_rng(i)
            for _ in range(8):
                d = rng.standard_normal(x.shape)
                d /= np.linalg.norm(d)
                vals = []
                for sign in (1.0, -1.0):
                    args = [ad.Tensor(a) for a in inputs]
                    args[i] = ad.Tensor(x + sign * eps * d)
                    with ad.no_grad():
                        vals.append(float(pwo.loss(*args).data))
                numeric = (vals[0] - vals[1]) / (2 * eps)
                assert np.isclose(
                    np.vdot(g.data, d), numeric, rtol=1e-3, atol=1e-4
                )

    def test_source_only_oracle_matches_full_loss(self, pw_setup):
        cfg, targets, _, theta_j, theta_m, window = pw_setup
        pwo = ProcessWindowSMOObjective(cfg, targets, window)
        so = pwo.source_only_loss(theta_m)
        assert so is not None
        tj1 = ad.Tensor(theta_j, requires_grad=True)
        tm = ad.Tensor(theta_m)
        full = pwo.loss(tj1, tm)
        (g_full,) = ad.grad(full, [tj1])
        tj2 = ad.Tensor(theta_j, requires_grad=True)
        basis_loss = so(tj2)
        (g_basis,) = ad.grad(basis_loss, [tj2])
        np.testing.assert_allclose(
            float(basis_loss.data), float(full.data), rtol=1e-12
        )
        np.testing.assert_allclose(g_basis.data, g_full.data, atol=1e-10)

    def test_validation(self, pw_setup):
        cfg, targets, *_ = pw_setup
        with pytest.raises(ValueError):
            ProcessWindowSMOObjective(cfg, targets, robust="median")
        pwo = ProcessWindowSMOObjective(cfg, targets)
        with pytest.raises(ValueError):
            pwo.loss(ad.Tensor(np.zeros(5)), ad.Tensor(targets[:1]))

    def test_rejects_baked_source_engines(self, pw_setup):
        """The SMO objective is a function of theta_J; Hopkins engines
        (source baked into the TCC) must be rejected up front with a
        pointer to HopkinsMOObjective(window=...)."""
        cfg, targets, source, *_ = pw_setup
        hopkins = cache.hopkins_engine(cfg, source)
        with pytest.raises(ValueError, match="HopkinsMOObjective"):
            ProcessWindowSMOObjective(cfg, targets, engine=hopkins)

    def test_images_keys_and_band(self, pw_setup):
        cfg, targets, _, theta_j, theta_m, window = pw_setup
        pwo = ProcessWindowSMOObjective(cfg, targets, window)
        images = pwo.images(theta_j, theta_m)
        c = window.num_corners
        f = len(window.conditions())
        assert images["corner_resists"].shape == (c, 2, cfg.mask_size, cfg.mask_size)
        assert images["corner_aerials"].shape == (f, 2, cfg.mask_size, cfg.mask_size)
        assert set(images) == {
            "source", "mask", "target", "corner_aerials", "corner_resists"
        }
        assert images["mask"].shape == targets.shape
        band = pvb_band_nm2(images["corner_resists"][:, 0], cfg)
        assert band >= 0.0


# ----------------------------------------------------------------------
# BiSMO hypergradients through the condition axis
# ----------------------------------------------------------------------
class TestBilevelThroughConditions:
    def test_hvp_and_mixed_vjp_pass_fd_gradcheck(self, pw_setup):
        """Exact second-order oracles through the fused condition stack
        match central differences of the first-order gradients, taken
        from contexts at theta_J +/- h v (the acceptance bar for BiSMO
        hypergradients through the condition axis)."""
        cfg, targets, _, theta_j, theta_m, window = pw_setup
        pwo = ProcessWindowSMOObjective(cfg, targets, window)
        exact = HypergradientContext(pwo.source_only_loss(theta_m), theta_j)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(theta_j.shape)
        h = 1e-3 / np.linalg.norm(v)
        plus = exact.at(theta_j + h * v)
        minus = exact.at(theta_j - h * v)
        hv_exact = exact.hvp(v)
        hv_fd = (plus.grad_j - minus.grad_j) / (2.0 * h)
        scale = max(np.abs(hv_exact).max(), 1e-12)
        assert np.abs(hv_exact - hv_fd).max() / scale < 1e-4
        mv_exact = exact.mixed_vjp(v)
        mv_fd = (plus.grad_m - minus.grad_m) / (2.0 * h)
        scale = max(np.abs(mv_exact).max(), 1e-12)
        assert np.abs(mv_exact - mv_fd).max() / scale < 1e-4

    def test_bismo_window_run_improves(self, pw_setup):
        cfg, targets, source, _, _, window = pw_setup
        solver = BiSMO(
            cfg, targets, method="nmn", unroll_steps=1, terms=2,
            process_window=window,
        )
        result = solver.run(source, iterations=3)
        assert isinstance(solver.objective, ProcessWindowSMOObjective)
        assert result.losses[-1] < result.losses[0]
        assert np.all(np.isfinite(result.losses))


# ----------------------------------------------------------------------
# Hopkins window path
# ----------------------------------------------------------------------
class TestHopkinsWindow:
    def test_defocused_socs_matches_abbe_at_full_rank(
        self, tiny_config, tiny_source
    ):
        """The rank-preserving phase identity: a defocused full-rank SOCS
        reproduces the defocused Abbe aerial without re-decomposition."""
        cfg = tiny_config
        fx, fy = cfg.freq_grid()
        support = int((np.hypot(fx, fy) <= 2 * cfg.cutoff_freq + 1e-15).sum())
        hop = HopkinsImaging(cfg, tiny_source, num_kernels=support)
        abbe = AbbeImaging(cfg)
        rng = np.random.default_rng(9)
        mask = rng.random((cfg.mask_size,) * 2)
        np.testing.assert_allclose(
            hop.aerial_conditions_fast(mask, conditions=(70.0,)),
            abbe.aerial_conditions_fast(mask, tiny_source, (70.0,)),
            atol=1e-10,
        )

    def test_windowed_hopkins_objective_matches_loop(
        self, tiny_config, tiny_source, tiny_target
    ):
        cfg = tiny_config
        window = ProcessWindow.from_grid((0.97, 1.03), (0.0, 60.0))
        obj = HopkinsMOObjective(cfg, tiny_target, tiny_source, window=window)
        theta_m = init_theta_mask(tiny_target, cfg)
        tm = ad.Tensor(theta_m, requires_grad=True)
        loss = obj.loss(tm)
        (gm,) = ad.grad(loss, [tm])
        # reference: one Hopkins imaging pass per corner
        tm2 = ad.Tensor(theta_m, requires_grad=True)
        mask = mask_from_theta(tm2, cfg)
        losses = per_corner_losses(
            obj.engine, cfg, mask, None, tiny_target, window
        )
        total = None
        for corner, loss_c in zip(window.corners, losses):
            li = F.mul(loss_c, corner.weight)
            total = li if total is None else F.add(total, li)
        (gm2,) = ad.grad(total, [tm2])
        np.testing.assert_allclose(float(loss.data), float(total.data), rtol=1e-10)
        np.testing.assert_allclose(gm.data, gm2.data, atol=1e-12)
        assert obj.last_corner_losses.shape == (4, 1)

    def test_condition_kernels_phase_the_cached_stack_per_call(
        self, tiny_config, tiny_source
    ):
        """The null spec gets the cached SOCS stack itself; any other
        condition gets that stack times the condition's pupil phase,
        built afresh on every call (no per-engine memo) and bitwise
        equal from call to call."""
        from repro.optics import PupilAberration

        hop = cache.hopkins_engine(tiny_config, tiny_source, 6)
        _, socs_stack, _ = cache.socs(tiny_config, tiny_source, 6)
        conditions = (0.0, 45.0, {"Z5": 20.0, "Z7": -12.0})
        first = hop.condition_kernels(conditions)
        second = hop.condition_kernels(conditions)
        assert first[0] is socs_stack and second[0] is socs_stack
        for condition, k1, k2 in zip(conditions[1:], first[1:], second[1:]):
            phase = PupilAberration.coerce(condition).phase(tiny_config)
            expected = socs_stack.data * phase[None, :, :]
            assert k1 is not k2
            np.testing.assert_array_equal(k1.data, expected)
            np.testing.assert_array_equal(k2.data, expected)

    def test_hopkins_unfused_condition_stack_matches(
        self, tiny_config, tiny_source
    ):
        """The fused Hopkins condition stack equals one
        ``incoherent_image_composed`` per condition's phased SOCS
        kernels, gradients included."""
        cfg = tiny_config
        hop = HopkinsImaging(cfg, tiny_source, num_kernels=6)
        rng = np.random.default_rng(12)
        m = rng.random((cfg.mask_size,) * 2)
        focus = (0.0, 45.0)
        outs = []
        for build in (
            lambda mt: hop.aerial_conditions(mt, conditions=focus),
            lambda mt: composed_condition_stack(
                mt, hop.condition_kernels(focus), hop.weights
            ),
        ):
            mt = ad.Tensor(m, requires_grad=True)
            stack = build(mt)
            (gm,) = ad.grad(F.sum(F.power(stack, 2.0)), [mt])
            outs.append((stack.data, gm.data))
        np.testing.assert_allclose(outs[0][0], outs[1][0], atol=1e-12)
        np.testing.assert_allclose(outs[0][1], outs[1][1], atol=1e-10)


# ----------------------------------------------------------------------
# robust solvers + harness report
# ----------------------------------------------------------------------
class TestRobustSolversAndHarness:
    def test_abbemo_with_window_improves_robust_loss(self, pw_setup):
        cfg, targets, source, _, _, window = pw_setup
        solver = AbbeMO(cfg, targets, source, process_window=window)
        result = solver.run(iterations=4)
        assert isinstance(solver.objective, ProcessWindowSMOObjective)
        assert result.losses[-1] < result.losses[0]
        # per-tile robust losses ride the records
        assert result.final_tile_losses.shape == (2,)

    def test_robust_applies_to_the_default_window(self, pw_setup):
        """Without ``process_window`` the solvers optimize the paper's
        window, and ``robust=`` reduces across its three corners."""
        cfg, targets, source, *_ = pw_setup
        mo = AbbeMO(cfg, targets, source, robust="adaptive")
        bi = BiSMO(cfg, targets, method="nmn", terms=2, robust="adaptive")
        for solver, result in (
            (mo, mo.run(iterations=2)),
            (bi, bi.run(source, iterations=2)),
        ):
            assert solver.objective.window == ProcessWindow.from_config(cfg)
            weights = result.history[-1].corner_weights
            assert weights is not None and weights.shape == (3,)

    def test_pvb_band_reduces_to_xor_for_two_corners(self, rng):
        cfg = OpticalConfig.preset("tiny")
        a = rng.random((cfg.mask_size,) * 2)
        b = rng.random((cfg.mask_size,) * 2)
        assert pvb_band_nm2(np.stack([a, b]), cfg) == pvb_nm2(a, b, cfg)
        with pytest.raises(ValueError):
            pvb_band_pixels(a)

    def test_evaluate_and_table(self, tiny_config, tiny_rects, tiny_source):
        from repro.harness import RunSettings, process_window_table, run_matrix
        from repro.layouts import Dataset
        from repro.layouts.synth import ClipStyle

        cfg = tiny_config
        clip = Clip(
            name="unit",
            rects=tuple(tiny_rects),
            cd_nm=40,
            tile_nm=int(cfg.tile_nm),
        )
        window = ProcessWindow.from_grid((0.97, 1.03), (0.0, 60.0))
        settings = RunSettings(
            config=cfg, iterations=2, process_window=window
        )
        style = ClipStyle(name="U", cd_nm=40, tile_nm=int(cfg.tile_nm), target_area_nm2=1)
        ds = Dataset(name="unit-ds", clips=(clip,), style=style)
        records = run_matrix([ds], settings, methods=["Abbe-MO"])
        assert len(records) == 1
        rec = records[0]
        assert rec.corner_loss.shape == (4,)
        assert rec.corner_l2_nm2.shape == (4,)
        assert rec.band_nm2 >= 0.0
        assert rec.method == "Abbe-MO"
        table = process_window_table(records, value="l2")
        assert table.columns[-2:] == ["band_nm2", "robust"]
        assert len(table.rows) == 1
        with pytest.raises(KeyError):
            process_window_table(records, value="nope")
