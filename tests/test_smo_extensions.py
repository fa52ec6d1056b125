"""Tests for the SMO extensions: unrolled hypergradients, defocus
imaging, the GLP dataset loader."""

import numpy as np
import pytest

import repro.autodiff as ad
from repro.optics import AbbeImaging
from repro.smo import BiSMO, ProcessWindowSMOObjective, unrolled_hypergradient
from tests.oracles import composed_context, unrolled_hypergradient_composed
from tests.test_smo_bilevel_math import QuadraticObjective


def _toy_unroll_closed_form(toy, j, m, steps, xi):
    """T unrolled SGD steps on the quadratic toy in closed form:
    ``j_{t+1} = P j_t - xi B m`` with ``P = I - xi A``, so ``d j_T / d m
    = -xi sum_{k<T} P^k B`` and ``hyper = gm(j_T, m) + (d j_T / d m)^T
    gj(j_T, m)``.  Returns ``(hyper, j_T, loss at j_T)``."""
    p = np.eye(toy.n) - xi * toy.a
    jt, djdm = j, np.zeros((toy.n, toy.n))
    for _ in range(steps):
        jt = p @ jt - xi * toy.b @ m
        djdm = p @ djdm - xi * toy.b
    gm = toy.b.T @ jt + toy.c @ m + toy.d
    gj = toy.a @ jt + toy.b @ m
    loss = (
        0.5 * jt @ toy.a @ jt + jt @ toy.b @ m + 0.5 * m @ toy.c @ m
        + toy.d @ m
    )
    return gm + djdm.T @ gj, jt, loss


class TestUnrolledHypergradient:
    def test_quadratic_unroll_matches_manual(self):
        """One unrolled SGD step on the quadratic toy has the closed form
        hyper = gm(j', m) + d j'/dm ^T gj(j', m) with
        j' = j - xi (A j + B m)  and  d j'/dm = -xi B; the composed
        reference (the graph through the inner step) gives it."""
        toy = QuadraticObjective(n=3, seed=5)
        rng = np.random.default_rng(11)
        j, m = rng.standard_normal(3), rng.standard_normal(3)
        xi = 0.05
        hyper, j_new, _ = unrolled_hypergradient_composed(toy, j, m, 1, xi)
        j_prime = j - xi * (toy.a @ j + toy.b @ m)
        np.testing.assert_allclose(j_new, j_prime, atol=1e-12)
        gm = toy.b.T @ j_prime + toy.c @ m + toy.d
        gj = toy.a @ j_prime + toy.b @ m
        expected = gm - xi * toy.b.T @ gj
        np.testing.assert_allclose(hyper, expected, atol=1e-10)

    def test_quadratic_unroll_matches_composed_reference(self):
        """T = 3: the closed form against the composed reference, whose
        later steps differentiate through the earlier steps' gradient
        graphs."""
        toy = QuadraticObjective(n=4, seed=9)
        rng = np.random.default_rng(13)
        j, m = rng.standard_normal(4), rng.standard_normal(4)
        hyper, j_new, loss = _toy_unroll_closed_form(toy, j, m, 3, 0.05)
        ref_hyper, ref_j, ref_loss = unrolled_hypergradient_composed(
            toy, j, m, 3, 0.05
        )
        scale = np.abs(ref_hyper).max()
        np.testing.assert_allclose(hyper, ref_hyper, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(j_new, ref_j, rtol=1e-10)
        assert loss == pytest.approx(ref_loss, rel=1e-10)

    def test_zero_steps_rejected(self, tiny_config, tiny_target, tiny_source):
        toy = QuadraticObjective(n=2)
        ctx = composed_context(toy, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="at least one inner step"):
            unrolled_hypergradient(ctx, 0.1, 0, 0.0, None, [])
        solver = BiSMO(tiny_config, tiny_target, method="unroll", unroll_steps=0)
        with pytest.raises(ValueError, match="at least one inner step"):
            solver.run(tiny_source, iterations=1)

    def test_bismo_unroll_variant_decreases_loss(
        self, tiny_config, tiny_target, tiny_source
    ):
        objective = ProcessWindowSMOObjective(tiny_config, tiny_target)
        solver = BiSMO(
            tiny_config, tiny_target, method="unroll", unroll_steps=2,
            objective=objective,
        )
        res = solver.run(tiny_source, iterations=10)
        assert res.method == "BiSMO-UNROLL"
        assert res.final_loss < res.losses[0]

    def test_unroll_in_method_error_message(self, tiny_config, tiny_target):
        with pytest.raises(KeyError, match="unroll"):
            BiSMO(tiny_config, tiny_target, method="bogus")


class TestDefocusImaging:
    def test_zero_defocus_matches_baseline(self, tiny_config, tiny_target, tiny_source):
        engine = AbbeImaging(tiny_config)
        m, s = ad.Tensor(tiny_target), ad.Tensor(tiny_source)
        with ad.no_grad():
            i0 = engine.aerial(m, s).data
            i1 = engine.aerial_conditions(m, s, (0.0,)).data[0]
        np.testing.assert_allclose(i0, i1)

    def test_defocus_symmetric_in_sign(self, tiny_config, tiny_target, tiny_source):
        """+z and -z defocus give the same intensity for a real mask and
        this symmetric (aberration-free) pupil."""
        engine = AbbeImaging(tiny_config)
        with ad.no_grad():
            ip, im = engine.aerial_conditions(
                ad.Tensor(tiny_target), ad.Tensor(tiny_source), (100.0, -100.0)
            ).data
        np.testing.assert_allclose(ip, im, atol=1e-10)

    def test_defocus_gradients_still_flow(self, tiny_config, tiny_target, tiny_source):
        engine = AbbeImaging(tiny_config)
        m = ad.Tensor(tiny_target, requires_grad=True)
        s = ad.Tensor(tiny_source + 0.05, requires_grad=True)
        from repro.autodiff import functional as F

        gm, gs = ad.grad(F.sum(engine.aerial_conditions(m, s, (80.0,))), [m, s])
        assert np.all(np.isfinite(gm.data))
        assert np.all(np.isfinite(gs.data))

    def test_defocus_preserves_energy_of_clear_field(self, tiny_config, tiny_source):
        """Defocus is a pure phase factor: the DC (clear-field) response
        is unchanged."""
        engine = AbbeImaging(tiny_config)
        (clear,) = engine.aerial_conditions_fast(
            np.ones((tiny_config.mask_size,) * 2), tiny_source, (120.0,)
        )
        assert clear.mean() == pytest.approx(1.0, abs=1e-6)


class TestGLPDatasetLoader:
    def test_roundtrip_directory(self, tmp_path):
        from repro.geometry import Rect
        from repro.layouts import dataset_from_glp_dir, write_glp

        write_glp(tmp_path / "a.glp", "clip_a", {"M1": [Rect(0, 0, 100, 50)]})
        write_glp(
            tmp_path / "b.glp",
            "clip_b",
            {"M1": [Rect(0, 0, 60, 60)], "VIA": [Rect(10, 10, 40, 40)]},
        )
        ds = dataset_from_glp_dir(tmp_path, "REAL", cd_nm=32, tile_nm=2000)
        assert len(ds) == 2
        assert ds[0].name == "clip_a"
        assert len(ds[1].rects) == 2  # layers merged

    def test_empty_dir_raises(self, tmp_path):
        from repro.layouts import dataset_from_glp_dir

        with pytest.raises(FileNotFoundError):
            dataset_from_glp_dir(tmp_path, "X", cd_nm=32)
