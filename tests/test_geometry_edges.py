"""Tests for EPE measurement sites and contour probing."""

import numpy as np
import pytest

from repro.geometry import (
    EPESite,
    GridSpec,
    Rect,
    edge_sites,
    measure_epe,
    rasterize,
)


class TestEdgeSites:
    def test_rect_has_sites_on_all_four_edges(self):
        sites = edge_sites([Rect(100, 100, 300, 200)], spacing_nm=50)
        normals = {s.normal for s in sites}
        assert normals == {(0.0, -1.0), (0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)}

    def test_spacing_controls_count(self):
        few = edge_sites([Rect(0, 0, 400, 400)], spacing_nm=200)
        many = edge_sites([Rect(0, 0, 400, 400)], spacing_nm=50)
        assert len(many) > len(few)

    def test_sites_lie_on_edges(self):
        r = Rect(100, 100, 300, 200)
        for s in edge_sites([r], spacing_nm=60):
            on_x_edge = s.x_nm in (r.x1, r.x2) and r.y1 <= s.y_nm <= r.y2
            on_y_edge = s.y_nm in (r.y1, r.y2) and r.x1 <= s.x_nm <= r.x2
            assert on_x_edge or on_y_edge

    def test_corner_margin_respected(self):
        r = Rect(0, 0, 100, 100)
        for s in edge_sites([r], spacing_nm=20, corner_margin_nm=15):
            if s.normal[0] != 0:  # vertical edge: y varies
                assert 15 <= s.y_nm <= 85
            else:
                assert 15 <= s.x_nm <= 85

    def test_tiny_edge_skipped(self):
        # edge shorter than twice the corner margin has no usable span
        sites = edge_sites([Rect(0, 0, 15, 400)], spacing_nm=50, corner_margin_nm=10)
        vertical_normals = [s for s in sites if s.normal[1] != 0]
        assert not vertical_normals

    def test_shared_edges_excluded(self):
        # two abutting rects: the shared edge is interior, not printable
        a, b = Rect(0, 0, 100, 100), Rect(100, 0, 200, 100)
        sites = edge_sites([a, b], spacing_nm=30)
        for s in sites:
            assert not (s.x_nm == 100 and s.normal[0] != 0)

    def test_is_vertical_edge_flag(self):
        assert EPESite(0, 0, (1.0, 0.0)).is_vertical_edge
        assert not EPESite(0, 0, (0.0, 1.0)).is_vertical_edge


class TestMeasureEPE:
    def _setup(self, print_rect, target_rect=Rect(100, 100, 300, 200)):
        grid = GridSpec(64, 5.0)  # 320 nm tile
        printed = rasterize([print_rect], grid)
        sites = edge_sites([target_rect], spacing_nm=40)
        return measure_epe(printed, sites, grid), sites

    def test_perfect_print_near_zero(self):
        errors, _ = self._setup(Rect(100, 100, 300, 200))
        assert np.abs(errors).max() < 3.0  # within sub-pixel interpolation

    def test_uniform_shrink_negative(self):
        errors, _ = self._setup(Rect(110, 110, 290, 190))
        assert np.all(errors < 0)
        assert np.abs(np.abs(errors).mean() - 10.0) < 3.0

    def test_uniform_bloat_positive(self):
        errors, _ = self._setup(Rect(90, 90, 310, 210))
        assert np.all(errors > 0)
        assert np.abs(errors.mean() - 10.0) < 3.0

    def test_nothing_printed_saturates(self):
        grid = GridSpec(64, 5.0)
        printed = np.zeros((64, 64))
        sites = edge_sites([Rect(100, 100, 300, 200)], spacing_nm=40)
        errors = measure_epe(printed, sites, grid, max_search_nm=80.0)
        np.testing.assert_allclose(errors, -80.0)

    def test_one_sided_shift(self):
        # only the right edge moves: sites on the right edge see the shift;
        # top/bottom sites beyond the printed extent (x > 280) legitimately
        # report catastrophic misses and are excluded here.
        errors, sites = self._setup(Rect(100, 100, 280, 200))
        right = [e for e, s in zip(errors, sites) if s.normal == (1.0, 0.0)]
        others = [
            e
            for e, s in zip(errors, sites)
            if s.normal != (1.0, 0.0) and s.x_nm <= 270
        ]
        assert np.all(np.array(right) < -15)
        assert np.abs(np.array(others)).max() < 5.0


def _two_sample_epe(printed, site, grid, threshold, step_nm, n_steps, max_search_nm):
    """The march as it read when the start point was sampled twice (once
    for the side, once as the first interpolation end): the reference
    the one-sample march is held to bitwise."""
    from repro.geometry.edges import _sample

    nx, ny = site.normal
    inside = _sample(printed, grid, site.x_nm, site.y_nm) >= threshold
    direction = 1.0 if inside else -1.0
    prev_val = _sample(printed, grid, site.x_nm, site.y_nm)
    for k in range(1, n_steps + 1):
        d = k * step_nm * direction
        val = _sample(printed, grid, site.x_nm + nx * d, site.y_nm + ny * d)
        crossed = (val < threshold) if inside else (val >= threshold)
        if crossed:
            lo, hi = prev_val, val
            frac = 0.5 if hi == lo else (threshold - lo) / (hi - lo)
            return ((k - 1) + frac) * step_nm * direction
        prev_val = val
    return max_search_nm * direction


class TestEPEMarch:
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("inside", [True, False])
    def test_crossing_at_step_k_takes_k_plus_one_samples(
        self, monkeypatch, k, inside
    ):
        """One gather at the site, then one per step up to the crossing."""
        from repro.geometry import edges

        grid = GridSpec(64, 5.0)
        step = grid.pixel_nm / 2.0
        site = EPESite(100.0, 150.0, (1.0, 0.0))
        direction = 1.0 if inside else -1.0
        edge = site.x_nm + direction * (k - 0.5) * step
        calls = []

        def sample(printed, grid, x_nm, y_nm):
            calls.append(x_nm)
            before = (x_nm - edge) * direction < 0.0
            return np.where(before == inside, 1.0, 0.0)

        monkeypatch.setattr(edges, "_sample", sample)
        (epe,) = measure_epe(np.zeros((64, 64)), [site], grid)
        assert len(calls) == k + 1
        assert epe == (k - 0.5) * step * direction

    def test_values_bitwise_equal_to_the_two_sample_march(self):
        grid = GridSpec(64, 5.0)
        rng = np.random.default_rng(3)
        printed = rasterize([Rect(95, 105, 305, 195), Rect(40, 40, 90, 260)], grid)
        printed = 0.8 * printed + 0.2 * rng.random(printed.shape)
        sites = edge_sites(
            [Rect(100, 100, 300, 200), Rect(40, 40, 90, 260)], spacing_nm=20
        )
        step = grid.pixel_nm / 2.0
        n_steps = int(80.0 / step)
        expected = [
            _two_sample_epe(printed, s, grid, 0.5, step, n_steps, 80.0)
            for s in sites
        ]
        np.testing.assert_array_equal(measure_epe(printed, sites, grid), expected)
