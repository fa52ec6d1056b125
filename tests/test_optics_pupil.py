"""Pupil tests: Fresnel phase sign/scale, zero-defocus identity, the
band-limited crop geometry (every crop holds its full-grid pupil
exactly), and the conjugate-pair structure that the fused
condition-axis streaming relies on (the structural pairing survives
defocus, the conjugate field identity does not — engines must opt out
of pairing on complex stacks)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optics import (
    AbbeImaging,
    OpticalConfig,
    SourceGrid,
    annular,
    conj_pair_indices,
    crop_geometry,
    defocus_phase,
    fftlib,
    pupil_crops,
)
from repro.optics import cache
from tests.oracles import FullGridAbbeImaging, expand_kernels, full_pupil_stack


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache.clear()
    yield
    cache.clear()


class TestDefocusPhase:
    def test_matches_fresnel_formula(self, tiny_config):
        """exp(-i pi lambda z (f^2 + g^2)) from first principles."""
        z = 75.0
        f = np.fft.fftfreq(tiny_config.mask_size, d=tiny_config.pixel_nm)
        fx, fy = np.meshgrid(f, f, indexing="xy")
        expected = np.exp(
            -1j * np.pi * tiny_config.wavelength_nm * z * (fx**2 + fy**2)
        )
        np.testing.assert_allclose(
            defocus_phase(tiny_config, z), expected, atol=1e-14
        )

    def test_unit_magnitude(self, tiny_config):
        """A pure aberration phase: |D| == 1 everywhere, any defocus."""
        for z in (-120.0, 33.3, 500.0):
            np.testing.assert_allclose(
                np.abs(defocus_phase(tiny_config, z)), 1.0, atol=1e-14
            )

    def test_zero_defocus_is_identity(self, tiny_config):
        np.testing.assert_array_equal(
            defocus_phase(tiny_config, 0.0),
            np.ones((tiny_config.mask_size,) * 2, dtype=complex),
        )

    def test_sign_convention_conjugate_for_negative_z(self, tiny_config):
        """D(-z) = conj(D(z)): through-focus symmetry of the phase."""
        np.testing.assert_allclose(
            defocus_phase(tiny_config, -60.0),
            np.conj(defocus_phase(tiny_config, 60.0)),
            atol=1e-14,
        )

    def test_even_in_frequency(self, tiny_config):
        """D(-f) == D(f): the property that preserves the +/-sigma
        structural pairing under defocus."""
        d = defocus_phase(tiny_config, 90.0)
        np.testing.assert_array_equal(d, fftlib.freq_reverse(d))


class TestDefocusedPupilStack:
    def test_zero_defocus_identity(self, tiny_config):
        """defocus_nm=0 returns the plain (real) crops."""
        grid = SourceGrid.from_config(tiny_config)
        ref, ref_idx = pupil_crops(tiny_config, grid)
        stack, idx = pupil_crops(tiny_config, grid, 0.0)
        assert not np.iscomplexobj(stack)
        np.testing.assert_array_equal(stack, ref)
        for a, b in zip(idx, ref_idx):
            np.testing.assert_array_equal(a, b)

    def test_is_shifted_stack_times_phase(self, tiny_config):
        grid = SourceGrid.from_config(tiny_config)
        _, centres = crop_geometry(tiny_config, grid)
        n = tiny_config.mask_size
        base, _ = pupil_crops(tiny_config, grid)
        z = 80.0
        stack, _ = pupil_crops(tiny_config, grid, z)
        np.testing.assert_allclose(
            expand_kernels(stack, centres, n),
            expand_kernels(base, centres, n) * defocus_phase(tiny_config, z),
            atol=1e-14,
        )

    def test_magnitude_is_pupil_indicator(self, tiny_config):
        """Defocus is a pure phase: |crop| is the 0/1 pupil indicator."""
        grid = SourceGrid.from_config(tiny_config)
        base, _ = pupil_crops(tiny_config, grid)
        stack, _ = pupil_crops(tiny_config, grid, 150.0)
        np.testing.assert_allclose(np.abs(stack), base, atol=1e-13)


class TestCropGeometry:
    @pytest.mark.parametrize(
        "preset, k", [("tiny", 14), ("small", 64), ("default", 56), ("paper", 56)]
    )
    def test_crop_size_per_preset(self, preset, k):
        """K holds twice the widest field support, or is the whole grid
        where it would not at least halve N (``small``)."""
        cfg = OpticalConfig.preset(preset)
        size, centres = crop_geometry(cfg, SourceGrid.from_config(cfg))
        assert size == k
        if k == cfg.mask_size:
            assert not np.any(centres)

    @pytest.mark.parametrize("preset", ["tiny", "small", "default"])
    @pytest.mark.parametrize(
        "condition", [0.0, {"Z4": 60.0}, {"Z7": 20.0}], ids=["nominal", "Z4", "Z7"]
    )
    def test_crops_hold_the_full_pupils_exactly(self, preset, condition):
        """Every nonzero sample of the whole-grid pupils lies inside its
        crop with the same value, and the crop holds nothing else."""
        cfg = OpticalConfig.preset(preset)
        grid = SourceGrid.from_config(cfg)
        _, centres = crop_geometry(cfg, grid)
        crops, _ = pupil_crops(cfg, grid, condition)
        full, _ = full_pupil_stack(cfg, grid, condition)
        expanded = expand_kernels(crops, centres, cfg.mask_size)
        assert np.count_nonzero(full) == np.count_nonzero(crops)
        np.testing.assert_array_equal(expanded, full)

    @pytest.mark.parametrize("preset", ["tiny", "default"])
    def test_paired_crops_reverse_with_negated_centres(self, preset):
        cfg = OpticalConfig.preset(preset)
        grid = SourceGrid.from_config(cfg)
        _, centres = crop_geometry(cfg, grid)
        crops, _ = pupil_crops(cfg, grid)
        pairs = cache.conj_pairs(cfg)
        assert pairs is not None
        np.testing.assert_array_equal(centres[pairs], -centres)
        np.testing.assert_array_equal(crops[pairs], fftlib.freq_reverse(crops))

    def test_paper_preset_builds_and_images_a_clear_field(self):
        """``paper``'s (901, 56, 56) crops take 22 MB where whole-grid
        pupils would take 28.2 GiB."""
        cfg = OpticalConfig.preset("paper")
        engine = AbbeImaging(cfg)
        assert engine._pupil_stack.shape == (901, 56, 56)
        source = annular(engine.source_grid, cfg.sigma_out, cfg.sigma_in)
        clear = engine.aerial_fast(np.ones((cfg.mask_size,) * 2), source).mean()
        assert abs(clear - 1.0) <= 1e-12


class TestConjugatePairing:
    def test_in_focus_pairing_verified(self, tiny_config):
        grid = SourceGrid.from_config(tiny_config)
        _, centres = crop_geometry(tiny_config, grid)
        stack, idx = pupil_crops(tiny_config, grid)
        pairs = conj_pair_indices(stack, centres, idx, grid)
        assert pairs is not None
        # Involution with the frequency-reversal identity, bitwise.
        np.testing.assert_array_equal(pairs[pairs], np.arange(pairs.size))
        np.testing.assert_array_equal(
            stack[pairs], fftlib.freq_reverse(stack)
        )

    def test_structural_pairing_survives_defocus(self, tiny_config):
        """K_{pair(s)}(f) == K_s(-f) still holds for the complex crops:
        the defocus phase is even, so frequency reversal maps the
        defocused pupil at +sigma onto the one at -sigma exactly."""
        grid = SourceGrid.from_config(tiny_config)
        _, centres = crop_geometry(tiny_config, grid)
        base, idx = pupil_crops(tiny_config, grid)
        pairs = conj_pair_indices(base, centres, idx, grid)
        stack, _ = pupil_crops(tiny_config, grid, 65.0)
        np.testing.assert_array_equal(stack[pairs], fftlib.freq_reverse(stack))

    def test_complex_stack_opts_out_of_field_pairing(self, tiny_config):
        """conj_pair_indices refuses complex crops: F_{-sigma} =
        conj(F_{+sigma}) needs real kernels, so defocused engines must
        not stream half the pairs."""
        grid = SourceGrid.from_config(tiny_config)
        _, centres = crop_geometry(tiny_config, grid)
        stack, idx = pupil_crops(tiny_config, grid, 65.0)
        assert conj_pair_indices(stack, centres, idx, grid) is None
        ((_, pairs),) = AbbeImaging(tiny_config).condition_stacks((65.0,))
        assert pairs is None

    def test_fused_streaming_stays_valid_under_defocus(
        self, tiny_config, tiny_source
    ):
        """A defocused engine (pairing opted out) matches the full-grid
        per-point reference loop — the fused path is exact whether or
        not the half-FFT pairing is available."""
        import repro.autodiff as ad

        engine = AbbeImaging(tiny_config)
        oracle = FullGridAbbeImaging(tiny_config, aberration=65.0)
        rng = np.random.default_rng(5)
        mask = rng.random((tiny_config.mask_size,) * 2)
        with ad.no_grad():
            (fused,) = engine.aerial_conditions(
                ad.Tensor(mask), ad.Tensor(tiny_source), (65.0,)
            ).data
            loop = oracle.aerial_loop(
                ad.Tensor(mask), ad.Tensor(tiny_source)
            ).data
        np.testing.assert_allclose(fused, loop, atol=1e-12)

    def test_cached_conj_pairs_match_engine(self, tiny_config):
        pairs = cache.conj_pairs(tiny_config)
        engine = AbbeImaging(tiny_config)
        np.testing.assert_array_equal(pairs, engine._conj_pairs)
        assert cache.conj_pairs(tiny_config, 65.0) is None
