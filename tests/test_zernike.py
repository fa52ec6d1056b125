"""Zernike aberration subsystem: polynomial math (orthogonality,
parity), the PupilAberration spec (canonicalization, Z4-vs-defocus
bitwise parity, cache identity), conj-pair opt-out for odd terms,
gradients through an aberrated ``incoherent_image_stack``, the Hopkins
arbitrary-D phase identity, per-corner resist calibration, and the
adaptive minimax corner-weight ascent."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.autodiff.grad import numerical_gradient
from repro.optics import (
    AbbeImaging,
    HopkinsImaging,
    OpticalConfig,
    ProcessCorner,
    ProcessWindow,
    PupilAberration,
    ZERNIKE_TERMS,
    cache,
    defocus_phase,
    fftlib,
    parse_aberration_spec,
    term_parity,
    zernike_polynomial,
)
from repro.smo import (
    AbbeMO,
    AdaptiveCornerWeights,
    ProcessWindowSMOObjective,
    SourceOptimizer,
    adaptive_corner_update,
    init_theta_mask,
    init_theta_source,
)
from tests.oracles import dose_resist, per_condition_loss


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache.clear()
    yield
    cache.clear()


# ----------------------------------------------------------------------
# polynomial math
# ----------------------------------------------------------------------
class TestZernikePolynomials:
    def test_orthonormal_on_unit_disk(self):
        """Noll normalization: <Z_i Z_j> over the disk == delta_ij.

        Polar-grid quadrature (the rho factor is the Jacobian); the
        tolerance absorbs the grid discretization error.
        """
        nr, nt = 400, 720
        r = (np.arange(nr) + 0.5) / nr
        t = (np.arange(nt) + 0.5) * 2.0 * np.pi / nt
        rr, tt = np.meshgrid(r, t, indexing="ij")
        area = (1.0 / nr) * (2.0 * np.pi / nt)
        vals = {k: zernike_polynomial(k, rr, tt) for k in ZERNIKE_TERMS}
        for i, ki in enumerate(ZERNIKE_TERMS):
            for kj in ZERNIKE_TERMS[i:]:
                inner = (vals[ki] * vals[kj] * rr).sum() * area / np.pi
                expected = 1.0 if ki == kj else 0.0
                assert abs(inner - expected) < 5e-3, (ki, kj, inner)

    def test_known_closed_forms(self):
        rho = np.linspace(0.0, 1.0, 7)
        theta = np.full_like(rho, 0.3)
        np.testing.assert_allclose(
            zernike_polynomial("Z4", rho, theta),
            np.sqrt(3.0) * (2.0 * rho**2 - 1.0),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            zernike_polynomial("Z7", rho, theta),
            np.sqrt(8.0) * (3.0 * rho**3 - 2.0 * rho) * np.sin(theta),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            zernike_polynomial("Z11", rho, theta),
            np.sqrt(5.0) * (6.0 * rho**4 - 6.0 * rho**2 + 1.0),
            atol=1e-13,
        )

    def test_frequency_parity(self):
        """Z(-f) == parity * Z(f): even for m-even terms, odd for coma/
        trefoil — the property deciding conj-pair survival."""
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 64))
        rho, theta = np.hypot(x, y), np.arctan2(y, x)
        rho_m, theta_m = np.hypot(-x, -y), np.arctan2(-y, -x)
        for term in ZERNIKE_TERMS:
            direct = zernike_polynomial(term, rho, theta)
            mirrored = zernike_polynomial(term, rho_m, theta_m)
            np.testing.assert_allclose(
                mirrored, term_parity(term) * direct, atol=1e-12
            )
        assert term_parity("Z4") == term_parity("Z5") == term_parity("Z11") == 1
        assert term_parity("Z7") == term_parity("Z9") == -1

    def test_unknown_term_rejected(self):
        with pytest.raises(KeyError):
            zernike_polynomial("Z12", np.zeros(1), np.zeros(1))
        with pytest.raises(KeyError):
            PupilAberration(terms={"Z99": 1.0})


# ----------------------------------------------------------------------
# PupilAberration spec + corner canonicalization
# ----------------------------------------------------------------------
class TestPupilAberration:
    def test_coerce_forms(self, tiny_config):
        n = tiny_config.mask_size
        assert PupilAberration.coerce(None).is_null
        assert PupilAberration.coerce(0.0).is_null
        ab = PupilAberration.coerce(55.0)
        assert ab.is_pure_defocus and ab.defocus_nm == 55.0
        ab2 = PupilAberration.coerce({"Z5": 20.0, "Z4": 10.0})
        assert ab2.terms == (("Z4", 10.0), ("Z5", 20.0))
        raw = np.zeros((n, n))
        ab3 = PupilAberration.coerce(raw)
        assert ab3.custom is not None and not ab3.is_pure_defocus
        with pytest.raises(TypeError):
            PupilAberration.coerce("Z5=20")

    def test_zero_coefficients_drop_out(self):
        assert PupilAberration(terms={"Z5": 0.0}).is_null
        assert PupilAberration(terms={"Z4": 30.0, "Z4": 30.0}).terms == (
            ("Z4", 30.0),
        )
        merged = PupilAberration(terms=(("Z5", 10.0), ("Z5", -10.0)))
        assert merged.is_null

    def test_corner_spellings_are_equal(self):
        c1 = ProcessCorner(defocus_nm=50.0)
        c2 = ProcessCorner(aberrations={"Z4": 50.0})
        assert c1 == c2
        assert hash(c1) == hash(c2)
        assert c1.label == c2.label == "d1/f50nm"
        assert c2.defocus_nm == 50.0  # sugar mirrored back

    def test_bitwise_identical_pupil_stacks(self, tiny_config):
        """The acceptance bar: both spellings compile to one shared,
        bitwise-identical cached pupil stack."""
        c1 = ProcessCorner(defocus_nm=42.0)
        c2 = ProcessCorner(aberrations={"Z4": 42.0})
        s1, _ = cache.pupil_stack(tiny_config, c1.aberrations)
        s2, _ = cache.pupil_stack(tiny_config, c2.aberrations)
        assert s1 is s2  # one cache entry -> trivially bitwise identical
        # and the compiled phase equals the legacy Fresnel factor bitwise
        np.testing.assert_array_equal(
            c2.aberrations.phase(tiny_config), defocus_phase(tiny_config, 42.0)
        )

    def test_phase_is_unit_modulus(self, tiny_config):
        ab = PupilAberration(terms={"Z5": 25.0, "Z7": -15.0, "Z11": 10.0})
        np.testing.assert_allclose(
            np.abs(ab.phase(tiny_config)), 1.0, atol=1e-13
        )

    def test_custom_map_phase(self, tiny_config):
        n = tiny_config.mask_size
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((n, n))
        ab = PupilAberration(custom=raw)
        np.testing.assert_allclose(
            ab.phase(tiny_config), np.exp(1j * raw), atol=1e-14
        )
        # digest-based identity: same pixels == same spec
        assert ab == PupilAberration(custom=raw.copy())
        assert hash(ab) == hash(PupilAberration(custom=raw.copy()))

    def test_pickle_and_hash_stability(self):
        ab = PupilAberration(terms={"Z5": 20.0}, custom=np.eye(8))
        clone = pickle.loads(pickle.dumps(ab))
        assert clone == ab and hash(clone) == hash(ab)
        window = ProcessWindow.from_grid(
            (0.98, 1.02), (0.0,), aberrations=({"Z5": 20.0},)
        )
        wclone = pickle.loads(pickle.dumps(window))
        assert wclone == window and hash(wclone) == hash(window)

    def test_parse_spec(self):
        spec = parse_aberration_spec("Z5=20, Z7=-10,Z5=5")
        assert spec == {"Z5": 25.0, "Z7": -10.0}
        with pytest.raises(ValueError):
            parse_aberration_spec("Z5:20")
        with pytest.raises(ValueError):
            parse_aberration_spec("  ")
        with pytest.raises(KeyError):
            parse_aberration_spec("Z2=5")

    def test_from_grid_rejects_duplicate_conditions(self):
        with pytest.raises(ValueError, match="duplicate process condition"):
            ProcessWindow.from_grid(
                (1.0,), (0.0, 40.0), aberrations=({"Z4": 40.0},)
            )
        with pytest.raises(ValueError, match="duplicate process condition"):
            # a zero-coefficient spec canonicalizes to the nominal corner
            ProcessWindow.from_grid((1.0,), (0.0,), aberrations=({"Z5": 0.0},))

    def test_window_conditions_group_by_spec(self):
        window = ProcessWindow.from_grid(
            (0.98, 1.0, 1.02), (0.0,), aberrations=({"Z5": 20.0}, {"Z7": 10.0})
        )
        assert window.num_corners == 9
        conds = window.conditions()
        assert len(conds) == 3 and conds[0].is_null
        np.testing.assert_array_equal(
            window.condition_index(), [0, 1, 2, 0, 1, 2, 0, 1, 2]
        )


# ----------------------------------------------------------------------
# conj-pair structure under aberrations
# ----------------------------------------------------------------------
class TestAberrationConjPairs:
    def _stack(self, config, spec):
        from repro.optics import SourceGrid, pupil_crops

        grid = SourceGrid.from_config(config)
        return pupil_crops(config, grid, spec), grid

    @staticmethod
    def _pairs(config):
        from repro.optics import SourceGrid, conj_pair_indices, crop_geometry
        from repro.optics import pupil_crops

        grid = SourceGrid.from_config(config)
        _, centres = crop_geometry(config, grid)
        base, idx = pupil_crops(config, grid)
        return conj_pair_indices(base, centres, idx, grid)

    def test_even_terms_keep_structural_pairing(self, tiny_config):
        """Astigmatism/spherical phases are even in f, so the frequency-
        reversal identity K_pair(f) == K_s(-f) survives — exactly like
        defocus."""
        pairs = self._pairs(tiny_config)
        for spec in ({"Z5": 25.0}, {"Z6": 25.0}, {"Z11": 15.0}, {"Z4": 40.0}):
            (stack, _), _ = self._stack(tiny_config, spec)
            np.testing.assert_allclose(
                stack[pairs], fftlib.freq_reverse(stack), atol=1e-13
            )

    def test_odd_terms_break_structural_pairing(self, tiny_config):
        """Coma/trefoil phases are odd: D(-f) = conj(D(f)) != D(f), so
        even the structural reversal fails, so pairing must opt out."""
        pairs = self._pairs(tiny_config)
        for spec in ({"Z7": 25.0}, {"Z9": 25.0}):
            (stack, _), _ = self._stack(tiny_config, spec)
            reversed_ = fftlib.freq_reverse(stack)
            assert not np.allclose(stack[pairs], reversed_, atol=1e-10)
            # but the odd phase conjugates under reversal
            np.testing.assert_allclose(
                np.conj(stack[pairs]), reversed_, atol=1e-13
            )

    def test_cached_conj_pairs_opt_out_for_aberrations(self, tiny_config):
        assert cache.conj_pairs(tiny_config) is not None
        for spec in ({"Z5": 25.0}, {"Z7": 25.0}, 60.0):
            assert cache.conj_pairs(tiny_config, spec) is None


# ----------------------------------------------------------------------
# imaging through aberrated stacks
# ----------------------------------------------------------------------
class TestAberratedImaging:
    def test_condition_stacks_accept_mixed_conditions(self, tiny_config):
        engine = AbbeImaging(tiny_config)
        out = engine.condition_stacks((0.0, 55.0, {"Z5": 20.0}))
        assert out[0][1] is not None  # real in-focus stack keeps pairing
        assert out[1][1] is None and np.iscomplexobj(out[1][0].data)
        assert out[2][1] is None and np.iscomplexobj(out[2][0].data)
        # same spec -> same cached stack object
        again = engine.condition_stacks(({"Z5": 20.0},))
        assert again[0][0] is out[2][0]

    def test_aerial_conditions_matches_per_condition_passes(
        self, tiny_config, tiny_source
    ):
        engine = AbbeImaging(tiny_config)
        rng = np.random.default_rng(5)
        mask = rng.random((tiny_config.mask_size,) * 2)
        conditions = (0.0, {"Z5": 25.0}, {"Z7": -18.0, "Z4": 30.0})
        with ad.no_grad():
            stack = engine.aerial_conditions(
                ad.Tensor(mask), ad.Tensor(tiny_source), conditions
            ).data
            per = [
                engine.aerial_conditions(
                    ad.Tensor(mask), ad.Tensor(tiny_source), (ab,)
                ).data[0]
                for ab in conditions
            ]
        for fi, ref in enumerate(per):
            np.testing.assert_allclose(stack[fi], ref, atol=1e-12)

    def test_fd_gradcheck_through_aberrated_stack(self, tiny_config):
        """FD check of mask and source-weight gradients through an
        aberrated ``incoherent_image_stack``: the weight gradient
        element-wise, the mask gradient against central differences
        along 8 seeded unit directions (``test_band_limited`` pins it
        element-wise against the full-grid oracle on aberrated
        stacks)."""
        engine = AbbeImaging(tiny_config)
        stacks_pairs = engine.condition_stacks(
            (0.0, {"Z5": 20.0}, {"Z7": 12.0})
        )
        stacks = [s for s, _ in stacks_pairs]
        pairs = [p for _, p in stacks_pairs]
        s = stacks[0].shape[0]
        rng = np.random.default_rng(7)
        m = rng.standard_normal((tiny_config.mask_size,) * 2) * 0.5
        w = rng.random(s) + 0.1
        eps, rtol, atol = 1e-6, 1e-4, 1e-6

        def loss(mt, wt):
            out = F.incoherent_image_stack(
                mt, stacks, wt, conj_pairs=pairs, centres=engine.pupil_centres
            )
            return F.sum(F.power(out, 2.0))

        mt, wt = ad.Tensor(m, requires_grad=True), ad.Tensor(w, requires_grad=True)
        gm, gw = ad.grad(loss(mt, wt), [mt, wt])
        num_w = numerical_gradient(loss, [ad.Tensor(m), ad.Tensor(w)], 1, eps=eps)
        assert np.allclose(gw.data, num_w, rtol=rtol, atol=atol)
        rng = np.random.default_rng(8)
        for _ in range(8):
            d = rng.standard_normal(m.shape)
            d /= np.linalg.norm(d)
            with ad.no_grad():
                up = float(loss(ad.Tensor(m + eps * d), ad.Tensor(w)).data)
                down = float(loss(ad.Tensor(m - eps * d), ad.Tensor(w)).data)
            numeric = (up - down) / (2 * eps)
            assert np.isclose(np.vdot(gm.data, d), numeric, rtol=rtol, atol=atol)

    def test_hopkins_arbitrary_d_identity_full_rank(
        self, tiny_config, tiny_source
    ):
        """Aberrated full-rank SOCS == aberrated Abbe: the rank-
        preserving TCC phase identity holds for arbitrary unit-modulus D
        (astigmatism + coma here), not just defocus."""
        cfg = tiny_config
        fx, fy = cfg.freq_grid()
        support = int((np.hypot(fx, fy) <= 2 * cfg.cutoff_freq + 1e-15).sum())
        spec = {"Z5": 22.0, "Z7": -14.0}
        hop = HopkinsImaging(cfg, tiny_source, num_kernels=support)
        abbe = AbbeImaging(cfg)
        rng = np.random.default_rng(9)
        mask = rng.random((cfg.mask_size,) * 2)
        with ad.no_grad():
            hop_stack = hop.aerial_conditions(ad.Tensor(mask), conditions=(spec,)).data
        np.testing.assert_allclose(
            hop_stack[0],
            abbe.aerial_conditions_fast(mask, tiny_source, (spec,))[0],
            atol=1e-10,
        )

    def test_windowed_objective_through_aberrations(self, tiny_config, tiny_source):
        """Fused robust loss over an aberration window matches the
        per-condition reference loop, gradients included."""
        cfg = tiny_config
        rng = np.random.default_rng(11)
        target = (rng.random((cfg.mask_size,) * 2) > 0.6).astype(np.float64)
        window = ProcessWindow.from_grid(
            (0.97, 1.03), (0.0,), aberrations=({"Z5": 20.0}, {"Z7": 12.0})
        )
        pwo = ProcessWindowSMOObjective(cfg, target, window)
        theta_j = init_theta_source(tiny_source, cfg)
        theta_m = init_theta_mask(target, cfg)
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

    def test_warmup_prebuilds_aberration_conditions(self, tiny_config):
        window = ProcessWindow.from_grid(
            (1.0,), (0.0,), aberrations=({"Z5": 20.0},)
        )
        cache.warmup(tiny_config, process_window=window)
        cache.reset_stats()
        for ab in window.conditions():
            cache.pupil_stack(tiny_config, ab)
        stats = cache.stats()
        assert stats["pupil_stack"]["misses"] == 0
        assert stats["pupil_stack"]["hits"] == 2


# ----------------------------------------------------------------------
# per-corner resist calibration
# ----------------------------------------------------------------------
class TestPerCornerThreshold:
    def test_dose_resist_override(self, tiny_config):
        aerial = ad.Tensor(np.linspace(0.0, 1.0, 25).reshape(5, 5))
        with ad.no_grad():
            base = dose_resist(aerial, tiny_config, 1.0).data
            lower = dose_resist(aerial, tiny_config, 1.0, 0.1).data
        assert (lower >= base).all() and (lower > base).any()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ProcessCorner(intensity_threshold=-0.1)

    def test_window_thresholds_resolved(self, tiny_config):
        window = ProcessWindow(
            corners=(
                ProcessCorner(1.0, 0.0),
                ProcessCorner(1.02, 0.0, intensity_threshold=0.3),
            )
        )
        np.testing.assert_allclose(
            window.intensity_thresholds(tiny_config),
            [tiny_config.intensity_threshold, 0.3],
        )

    def test_calibrated_corner_changes_images_and_loss(
        self, tiny_config, tiny_source
    ):
        cfg = tiny_config
        rng = np.random.default_rng(13)
        target = (rng.random((cfg.mask_size,) * 2) > 0.6).astype(np.float64)
        theta_j = init_theta_source(tiny_source, cfg)
        theta_m = init_theta_mask(target, cfg)
        shared = ProcessWindow.from_grid((1.0, 1.02))
        calibrated = ProcessWindow(
            corners=(
                ProcessCorner(1.0, 0.0),
                ProcessCorner(1.02, 0.0, intensity_threshold=0.3),
            )
        )
        obj_a = ProcessWindowSMOObjective(cfg, target, shared)
        obj_b = ProcessWindowSMOObjective(cfg, target, calibrated)
        with ad.no_grad():
            la = float(obj_a.loss(ad.Tensor(theta_j), ad.Tensor(theta_m)).data)
            lb = float(obj_b.loss(ad.Tensor(theta_j), ad.Tensor(theta_m)).data)
        assert la != lb
        # nominal corner identical, calibrated corner differs
        ra = obj_a.images(theta_j, theta_m)["corner_resists"]
        rb = obj_b.images(theta_j, theta_m)["corner_resists"]
        np.testing.assert_allclose(ra[0], rb[0], atol=1e-14)
        assert not np.allclose(ra[1], rb[1])

    def test_harness_report_carries_thresholds(
        self, tiny_config, tiny_rects, tiny_source
    ):
        from repro.harness import RunSettings, run_matrix
        from repro.layouts import Clip, Dataset
        from repro.layouts.synth import ClipStyle

        cfg = tiny_config
        clip = Clip(
            name="unit",
            rects=tuple(tiny_rects),
            cd_nm=40,
            tile_nm=int(cfg.tile_nm),
        )
        window = ProcessWindow(
            corners=(
                ProcessCorner(1.0, 0.0),
                ProcessCorner(1.02, 0.0, intensity_threshold=0.3),
            )
        )
        settings = RunSettings(config=cfg, iterations=2, process_window=window)
        style = ClipStyle(name="U", cd_nm=40, tile_nm=int(cfg.tile_nm), target_area_nm2=1)
        ds = Dataset(name="unit-ds", clips=(clip,), style=style)
        (rec,) = run_matrix([ds], settings, methods=["Abbe-MO"])
        assert rec.corner_thresholds == (cfg.intensity_threshold, 0.3)


# ----------------------------------------------------------------------
# adaptive minimax corner weighting
# ----------------------------------------------------------------------
class TestAdaptiveCornerWeights:
    def test_converges_to_worst_corner(self):
        """The issue's toy 2-corner problem: with fixed losses the EG
        ascent concentrates the simplex mass on the worst corner."""
        window = ProcessWindow.from_grid((1.0,), (0.0, 60.0))
        acw = AdaptiveCornerWeights(window, rate=1.0, floor=1e-3)
        losses = np.array([1.0, 10.0])
        trajectory = [acw.weights.copy()]
        for _ in range(40):
            trajectory.append(acw.update(losses).copy())
        final = trajectory[-1]
        assert final[1] / final.sum() > 0.99
        # total weight mass conserved throughout
        for w in trajectory:
            assert w.sum() == pytest.approx(window.weights.sum())
        # the floor keeps the easy corner alive
        assert final[0] > 0.0

    def test_shared_instance_requires_adaptive_mode(
        self, tiny_config, tiny_source, tiny_target
    ):
        from repro.smo import HopkinsMOObjective

        window = ProcessWindow.from_grid((1.0,), (0.0, 60.0))
        acw = AdaptiveCornerWeights(window)
        with pytest.raises(ValueError, match="adaptive"):
            HopkinsMOObjective(
                tiny_config,
                tiny_target,
                tiny_source,
                window=window,
                robust="sum",
                adaptive_weights=acw,
            )

    def test_cli_rejects_bad_aberration_spec(self, capsys):
        from repro.harness.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["pwindow", "--pw-aberrations", "Z3=5"])
        assert "unknown Zernike term" in capsys.readouterr().err
        args = parser.parse_args(["pwindow", "--pw-aberrations", "Z5=20,Z7=-10"])
        assert args.pw_aberrations == [{"Z5": 20.0, "Z7": -10.0}]

    def test_bismo_fd_mode_ascends_on_iterate_losses(
        self, tiny_config, tiny_source
    ):
        """The unroll strategy re-evaluates the loss tail at the earlier
        inner iterates after the iterate's own evaluation (as the retired
        finite-difference oracle mode did at perturbed points); the EG
        ascent must still use the corner losses of the iterate's own
        evaluation (captured before the strategy runs)."""
        from repro.smo import BiSMO

        cfg = tiny_config
        rng = np.random.default_rng(29)
        target = (rng.random((cfg.mask_size,) * 2) > 0.6).astype(np.float64)
        window = ProcessWindow.from_grid((1.0,), (0.0, 80.0))
        seen = []
        # A large inner step, so the earlier iterates' corner losses
        # differ from the iterate's own well beyond the rtol below.
        solver = BiSMO(
            cfg,
            target,
            method="unroll",
            unroll_steps=2,
            inner_lr=1000.0,
            process_window=window,
            robust="adaptive",
        )
        adaptive = solver.objective.adaptive_weights
        orig_update = adaptive.update

        def spy(losses):
            seen.append((adaptive.weights.copy(), np.asarray(losses).copy()))
            return orig_update(losses)

        adaptive.update = spy
        result = solver.run(tiny_source, iterations=2)
        assert len(seen) == 2
        assert result.final_corner_weights is not None
        # Each ascent input must be the corner split of the iterate's
        # own recorded loss under the weights live at that evaluation —
        # an earlier iterate's matrix would break this identity.
        for (weights, losses), rec in zip(seen, result.history):
            np.testing.assert_allclose(weights @ losses, rec.loss, rtol=1e-9)

    def test_milt_rejects_custom_maps_on_coarse_levels(
        self, tiny_config, tiny_source, tiny_target
    ):
        from repro.baselines import MultiLevelILT

        n = tiny_config.mask_size
        window = ProcessWindow.from_grid(
            (1.0,), (0.0,), aberrations=(np.zeros((n, n)),)
        )
        with pytest.raises(ValueError, match="levels=1"):
            MultiLevelILT(
                tiny_config,
                tiny_target,
                tiny_source,
                levels=2,
                num_kernels=4,
                process_window=window,
            )
        # single-level runs keep working with raw maps
        MultiLevelILT(
            tiny_config,
            tiny_target,
            tiny_source,
            levels=1,
            num_kernels=4,
            process_window=window,
        )

    def test_update_validation_and_degenerate_losses(self):
        window = ProcessWindow.from_grid((1.0,), (0.0, 60.0))
        acw = AdaptiveCornerWeights(window)
        with pytest.raises(ValueError):
            acw.update(np.ones(3))
        before = acw.weights.copy()
        acw.update(np.zeros(2))  # nothing to ascend
        np.testing.assert_allclose(acw.weights, before)
        with pytest.raises(ValueError):
            AdaptiveCornerWeights(window, rate=0.0)
        with pytest.raises(ValueError):
            AdaptiveCornerWeights(window, floor=1.0)

    def test_adaptive_objective_tracks_live_weights(
        self, tiny_config, tiny_source
    ):
        cfg = tiny_config
        rng = np.random.default_rng(17)
        target = (rng.random((cfg.mask_size,) * 2) > 0.6).astype(np.float64)
        window = ProcessWindow.from_grid((1.0,), (0.0, 80.0))
        pwo = ProcessWindowSMOObjective(cfg, target, window, robust="adaptive")
        theta_j = init_theta_source(tiny_source, cfg)
        theta_m = init_theta_mask(target, cfg)
        with ad.no_grad():
            l0 = float(pwo.loss(ad.Tensor(theta_j), ad.Tensor(theta_m)).data)
        matrix = pwo.last_corner_losses.copy()
        np.testing.assert_allclose(
            l0, float(pwo.adaptive_weights.weights @ matrix.sum(axis=1)),
            rtol=1e-12,
        )
        weights = adaptive_corner_update(pwo)
        assert weights is not None and weights.shape == (2,)
        # after the ascent the loss re-weights toward the worse corner
        with ad.no_grad():
            l1 = float(pwo.loss(ad.Tensor(theta_j), ad.Tensor(theta_m)).data)
        np.testing.assert_allclose(
            l1, float(weights @ pwo.last_corner_losses.sum(axis=1)), rtol=1e-12
        )

    def test_abbemo_adaptive_records_weight_trajectory(
        self, tiny_config, tiny_source
    ):
        cfg = tiny_config
        rng = np.random.default_rng(19)
        target = (rng.random((cfg.mask_size,) * 2) > 0.6).astype(np.float64)
        window = ProcessWindow.from_grid((0.98, 1.02), (0.0, 80.0))
        solver = AbbeMO(
            cfg, target, tiny_source, process_window=window, robust="adaptive"
        )
        result = solver.run(iterations=4)
        traj = result.corner_weight_matrix()
        assert traj.shape == (4, window.num_corners)
        np.testing.assert_allclose(
            traj.sum(axis=1), window.weights.sum(), rtol=1e-12
        )
        assert result.final_corner_weights.shape == (window.num_corners,)

    def test_so_adaptive_steps_and_records_weights(
        self, tiny_config, tiny_source, tiny_target
    ):
        """SourceOptimizer EG-steps an adaptive objective's corner
        weights once per iteration, like every other solver, and each
        record carries them."""
        cfg = tiny_config
        window = ProcessWindow.from_grid((0.98, 1.0, 1.02), (0.0, 60.0))
        objective = ProcessWindowSMOObjective(
            cfg, tiny_target, window, robust="adaptive"
        )
        start = objective.adaptive_weights.weights.copy()
        result = SourceOptimizer(cfg, tiny_target, objective=objective).run(
            init_theta_mask(tiny_target, cfg),
            init_theta_source(tiny_source, cfg),
            iterations=3,
        )
        traj = result.corner_weight_matrix()
        assert traj.shape == (3, window.num_corners)
        assert np.abs(traj[0] - start).max() > 0
        assert np.abs(traj[-1] - traj[0]).max() > 0
        np.testing.assert_array_equal(
            result.final_corner_weights, objective.adaptive_weights.weights
        )

    def test_adaptive_beats_static_sum_on_worst_corner(
        self, tiny_config, tiny_source
    ):
        """The soft-minimax promise on a toy 2-corner problem: when the
        static weights underweight the hard corner (the realistic
        gamma-on-nominal setting), the adaptive ascent shifts mass to it
        and strictly reduces the worst-corner loss under the same
        iteration budget, driving the corners toward equalization."""
        cfg = tiny_config
        rng = np.random.default_rng(23)
        target = (rng.random((cfg.mask_size,) * 2) > 0.6).astype(np.float64)
        # Nominal-heavy static weights, one genuinely hard focus corner.
        window = ProcessWindow.from_grid(
            (1.0,), (0.0, 150.0), weights=(10.0, 1.0)
        )
        results, final_w = {}, None
        for robust in ("sum", "adaptive"):
            solver = AbbeMO(
                cfg,
                target,
                tiny_source,
                process_window=window,
                robust=robust,
                robust_tau=1.0,
            )
            result = solver.run(iterations=16)
            matrix = solver.objective.corner_loss_matrix(
                solver._theta_j_fixed.data, result.theta_m
            )
            results[robust] = matrix.sum(axis=1)
            if robust == "adaptive":
                final_w = result.final_corner_weights
        assert results["adaptive"].max() < results["sum"].max()
        # the ascent moved weight mass onto the historically worst corner
        assert final_w[1] > window.weights[1]
