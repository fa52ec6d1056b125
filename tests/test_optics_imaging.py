"""Tests for the Abbe and Hopkins imaging engines: physical sanity,
cross-model agreement, and differentiability."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.autodiff.grad import gradcheck
from repro.optics import (
    AbbeImaging,
    HopkinsImaging,
    OpticalConfig,
    SourceGrid,
    annular,
    build_tcc,
    coherent_point,
    pupil,
    pupil_crops,
    resist_image,
    socs_kernels,
)
from tests.oracles import FullGridAbbeImaging, expand_kernels


@pytest.fixture(scope="module")
def cfg():
    return OpticalConfig.preset("tiny")


@pytest.fixture(scope="module")
def grid(cfg):
    return SourceGrid.from_config(cfg)


@pytest.fixture(scope="module")
def src(cfg, grid):
    return annular(grid, cfg.sigma_out, cfg.sigma_in)


@pytest.fixture(scope="module")
def abbe(cfg):
    return AbbeImaging(cfg)


@pytest.fixture(scope="module")
def mask(cfg):
    rng = np.random.default_rng(0)
    return (rng.random((cfg.mask_size, cfg.mask_size)) > 0.75).astype(np.float64)


class TestPupil:
    def test_low_pass_disc(self, cfg):
        h = pupil(cfg)
        fx, fy = cfg.freq_grid()
        inside = np.hypot(fx, fy) <= cfg.cutoff_freq
        np.testing.assert_array_equal(h > 0, inside)

    def test_dc_always_passes(self, cfg):
        assert pupil(cfg)[0, 0] == 1.0

    def test_stack_shape(self, cfg, grid):
        """At ``tiny`` every shifted pupil crops to 14 x 14 of 32 x 32."""
        stack, idx = pupil_crops(cfg, grid)
        assert stack.shape == (grid.num_valid, 14, 14)
        assert len(idx[0]) == grid.num_valid

    def test_centre_point_stack_matches_unshifted(self, cfg, grid, abbe):
        stack, idx = pupil_crops(cfg, grid)
        rows, cols = idx
        centre = np.argmin(
            np.hypot(grid.sigma_x[rows, cols], grid.sigma_y[rows, cols])
        )
        np.testing.assert_array_equal(abbe.pupil_centres[centre], [0, 0])
        full = expand_kernels(stack, abbe.pupil_centres, cfg.mask_size)
        np.testing.assert_array_equal(full[centre], pupil(cfg))


class TestAbbePhysics:
    def test_clear_field_is_one(self, cfg, abbe, src):
        clear = abbe.aerial_fast(np.ones((cfg.mask_size,) * 2), src).mean()
        assert clear == pytest.approx(1.0, abs=1e-6)

    def test_dark_field_is_zero(self, cfg, abbe, src):
        with ad.no_grad():
            img = abbe.aerial(ad.Tensor(np.zeros((cfg.mask_size,) * 2)), ad.Tensor(src))
        assert np.abs(img.data).max() < 1e-20

    def test_intensity_nonnegative(self, abbe, mask, src):
        with ad.no_grad():
            img = abbe.aerial(ad.Tensor(mask), ad.Tensor(src))
        assert img.data.min() >= -1e-12

    def test_source_scale_invariance(self, abbe, mask, src):
        """Normalization makes J and c*J produce identical images."""
        with ad.no_grad():
            i1 = abbe.aerial(ad.Tensor(mask), ad.Tensor(src)).data
            i2 = abbe.aerial(ad.Tensor(mask), ad.Tensor(0.37 * src)).data
        np.testing.assert_allclose(i1, i2, atol=1e-12)

    def test_batched_equals_loop(self, abbe, mask, src):
        with ad.no_grad():
            fast = abbe.aerial(ad.Tensor(mask), ad.Tensor(src)).data
            slow = FullGridAbbeImaging(abbe.config).aerial_loop(
                ad.Tensor(mask), ad.Tensor(src)
            ).data
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_coherent_limit_single_kernel(self, cfg, grid, abbe, mask):
        """A single on-axis source point = coherent imaging: |h * M|^2."""
        point = coherent_point(grid)
        with ad.no_grad():
            img = abbe.aerial(ad.Tensor(mask), ad.Tensor(point)).data
        h = pupil(cfg)
        field = np.fft.ifft2(h * np.fft.fft2(mask))
        np.testing.assert_allclose(img, np.abs(field) ** 2, atol=1e-12)

    def test_shift_covariance(self, cfg, abbe, mask, src):
        """Imaging commutes with cyclic mask shifts (space invariance)."""
        shifted = np.roll(mask, (5, -3), axis=(0, 1))
        with ad.no_grad():
            i1 = abbe.aerial(ad.Tensor(mask), ad.Tensor(src)).data
            i2 = abbe.aerial(ad.Tensor(shifted), ad.Tensor(src)).data
        np.testing.assert_allclose(np.roll(i1, (5, -3), axis=(0, 1)), i2, atol=1e-10)

    def test_dose_quadratic_scaling(self, abbe, mask, src):
        """I(d*M) == d^2 I(M) — the identity behind the fast PVB loss."""
        with ad.no_grad():
            i1 = abbe.aerial(ad.Tensor(0.98 * mask), ad.Tensor(src)).data
            i2 = abbe.aerial(ad.Tensor(mask), ad.Tensor(src)).data
        np.testing.assert_allclose(i1, 0.98**2 * i2, atol=1e-12)


class TestAbbeGradients:
    def test_gradcheck_wrt_mask(self, cfg, src):
        small = OpticalConfig(mask_size=24, tile_nm=500.0, source_size=5)
        engine = AbbeImaging(small)
        sgrid = SourceGrid.from_config(small)
        s = annular(sgrid, 0.95, 0.4)
        rng = np.random.default_rng(1)
        m = ad.Tensor(rng.random((24, 24)))
        gradcheck(
            lambda t: F.sum(F.power(engine.aerial(t, ad.Tensor(s)), 2.0)), [m],
            rtol=1e-3, atol=1e-6,
        )

    def test_gradcheck_wrt_source(self):
        small = OpticalConfig(mask_size=24, tile_nm=500.0, source_size=5)
        engine = AbbeImaging(small)
        sgrid = SourceGrid.from_config(small)
        s = ad.Tensor(annular(sgrid, 0.95, 0.4) * 0.7 + 0.1)
        rng = np.random.default_rng(2)
        m = ad.Tensor((rng.random((24, 24)) > 0.7).astype(float))
        gradcheck(
            lambda t: F.sum(F.power(engine.aerial(m, t), 2.0)), [s],
            rtol=1e-3, atol=1e-6,
        )

    def test_gradients_flow_to_both(self, abbe, mask, src):
        m = ad.Tensor(mask, requires_grad=True)
        s = ad.Tensor(src + 0.1, requires_grad=True)
        loss = F.sum(abbe.aerial(m, s))
        gm, gs = ad.grad(loss, [m, s])
        assert np.abs(gm.data).max() > 0
        assert np.abs(gs.data).max() > 0


class TestHopkins:
    def test_tcc_symmetric_psd(self, cfg, src):
        tcc, _ = build_tcc(cfg, src)
        np.testing.assert_allclose(tcc, tcc.T, atol=1e-12)
        vals = np.linalg.eigvalsh(tcc)
        assert vals.min() > -1e-10

    def test_wrong_source_shape_raises(self, cfg):
        with pytest.raises(ValueError):
            build_tcc(cfg, np.ones((3, 3)))

    def test_full_rank_socs_equals_abbe(self, cfg, abbe, mask, src):
        tcc, _ = build_tcc(cfg, src)
        hop = HopkinsImaging(cfg, src, num_kernels=tcc.shape[0])
        with ad.no_grad():
            i_abbe = abbe.aerial(ad.Tensor(mask), ad.Tensor(src)).data
            i_hop = hop.aerial(ad.Tensor(mask)).data
        np.testing.assert_allclose(i_abbe, i_hop, atol=1e-10)

    def test_eigenvalues_descending(self, cfg, src):
        vals, _, _ = socs_kernels(cfg, src, num_kernels=8)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_truncation_energy_monotonic(self, cfg, src):
        e4 = HopkinsImaging(cfg, src, num_kernels=4).truncation_energy
        e12 = HopkinsImaging(cfg, src, num_kernels=12).truncation_energy
        assert e4 < e12 <= 1.0 + 1e-9

    def test_truncation_error_decreases_with_q(self, cfg, abbe, mask, src):
        with ad.no_grad():
            ref = abbe.aerial(ad.Tensor(mask), ad.Tensor(src)).data
            e = []
            for q in (2, 8, 16):
                hop = HopkinsImaging(cfg, src, num_kernels=q)
                e.append(np.abs(hop.aerial(ad.Tensor(mask)).data - ref).max())
        assert e[0] >= e[1] >= e[2]

    def test_mask_gradients_flow(self, cfg, mask, src):
        hop = HopkinsImaging(cfg, src, num_kernels=6)
        m = ad.Tensor(mask, requires_grad=True)
        (g,) = ad.grad(F.sum(hop.aerial(m)), [m])
        assert np.abs(g.data).max() > 0

    def test_eigsh_path_matches_dense(self, cfg, src):
        """Small-Q (Lanczos) and full (dense eigh) agree on top pairs."""
        tcc, _ = build_tcc(cfg, src)
        p = tcc.shape[0]
        vals_l, _, _ = socs_kernels(cfg, src, num_kernels=5)
        vals_d, _, _ = socs_kernels(cfg, src, num_kernels=p)
        np.testing.assert_allclose(vals_l, vals_d[:5], atol=1e-9)


class TestResist:
    def test_threshold_behaviour(self, cfg):
        aerial = ad.Tensor(np.array([[0.0, cfg.intensity_threshold, 1.0]]))
        z = resist_image(aerial, cfg).data
        assert z[0, 0] < 0.01
        assert z[0, 1] == pytest.approx(0.5)
        assert z[0, 2] > 0.99

    def test_custom_threshold(self, cfg):
        aerial = ad.Tensor(np.array([[0.5]]))
        z = resist_image(aerial, cfg, threshold=0.5).data
        assert z[0, 0] == pytest.approx(0.5)

    def test_calibrate_threshold(self, cfg):
        from repro.optics import calibrate_threshold

        rng = np.random.default_rng(0)
        aerial = rng.random((32, 32))
        target = (rng.random((32, 32)) > 0.7).astype(float)
        tr = calibrate_threshold(aerial, target)
        printed = (aerial >= tr).sum()
        assert abs(int(printed) - int(target.sum())) <= 32  # within bisection tol

    def test_calibrate_empty_target_raises(self, cfg):
        from repro.optics import calibrate_threshold

        with pytest.raises(ValueError):
            calibrate_threshold(np.ones((4, 4)), np.zeros((4, 4)))
