"""Integration tests: every solver must run and make progress on the
tiny optical problem; structural checks on histories and results."""

import numpy as np
import pytest

from repro.optics import OpticalConfig
from repro.smo import (
    AMSMO,
    AbbeMO,
    BiSMO,
    HopkinsMO,
    ProcessWindowSMOObjective,
    SMOResult,
    SourceOptimizer,
    init_theta_mask,
    init_theta_source,
)


@pytest.fixture(scope="module")
def objective(tiny_config, tiny_target):
    return ProcessWindowSMOObjective(tiny_config, tiny_target)


class TestMOOnly:
    def test_abbe_mo_decreases_loss(self, tiny_config, tiny_target, tiny_source, objective):
        res = AbbeMO(
            tiny_config, tiny_target, tiny_source, objective=objective
        ).run(iterations=12)
        assert res.final_loss < res.losses[0]
        assert res.method == "Abbe-MO"
        assert res.theta_j is not None  # fixed source recorded

    def test_hopkins_mo_decreases_loss(self, tiny_config, tiny_target, tiny_source):
        res = HopkinsMO(
            tiny_config, tiny_target, tiny_source, num_kernels=8
        ).run(iterations=12)
        assert res.final_loss < res.losses[0]
        assert res.theta_j is None

    def test_custom_initialization(self, tiny_config, tiny_target, tiny_source, objective):
        theta0 = init_theta_mask(tiny_target, tiny_config) + 0.05
        res = AbbeMO(
            tiny_config, tiny_target, tiny_source, objective=objective
        ).run(iterations=2, theta_m0=theta0)
        assert res.theta_m.shape == theta0.shape

    def test_callback_invoked(self, tiny_config, tiny_target, tiny_source, objective):
        seen = []
        AbbeMO(tiny_config, tiny_target, tiny_source, objective=objective).run(
            iterations=3, callback=seen.append
        )
        assert len(seen) == 3
        assert seen[0].iteration == 0

    def test_history_timing_positive(self, tiny_config, tiny_target, tiny_source, objective):
        res = AbbeMO(
            tiny_config, tiny_target, tiny_source, objective=objective
        ).run(iterations=3)
        assert all(r.seconds > 0 for r in res.history)
        assert res.runtime_seconds > 0


class TestSourceOnly:
    def test_so_decreases_loss(self, tiny_config, tiny_target, tiny_source, objective):
        so = SourceOptimizer(tiny_config, tiny_target, objective=objective)
        res = so.run(
            init_theta_mask(tiny_target, tiny_config),
            init_theta_source(tiny_source, tiny_config),
            iterations=15,
        )
        assert res.final_loss <= res.losses[0]
        assert all(r.phase == "so" for r in res.history)

    def test_so_leaves_mask_untouched(self, tiny_config, tiny_target, tiny_source, objective):
        tm = init_theta_mask(tiny_target, tiny_config)
        so = SourceOptimizer(tiny_config, tiny_target, objective=objective)
        res = so.run(tm, init_theta_source(tiny_source, tiny_config), iterations=3)
        np.testing.assert_array_equal(res.theta_m, tm)


class TestAMSMO:
    def test_phases_alternate(self, tiny_config, tiny_target, tiny_source):
        res = AMSMO(
            tiny_config, tiny_target, rounds=2, so_steps=3, mo_steps=4
        ).run(tiny_source)
        phases = [r.phase for r in res.history]
        assert phases == (["so"] * 3 + ["mo"] * 4) * 2

    def test_loss_decreases(self, tiny_config, tiny_target, tiny_source):
        res = AMSMO(
            tiny_config, tiny_target, rounds=2, so_steps=4, mo_steps=6
        ).run(tiny_source)
        assert res.final_loss < res.losses[0]

    def test_hybrid_mode_runs_and_tracks_tcc_time(
        self, tiny_config, tiny_target, tiny_source
    ):
        res = AMSMO(
            tiny_config,
            tiny_target,
            mode="abbe-hopkins",
            rounds=2,
            so_steps=2,
            mo_steps=3,
            num_kernels=8,
        ).run(tiny_source)
        assert res.method == "AM-SMO(Abbe-Hopkins)"
        assert res.extra["tcc_seconds"] > 0
        assert res.final_loss < res.losses[0]

    def test_invalid_mode(self, tiny_config, tiny_target):
        with pytest.raises(ValueError):
            AMSMO(tiny_config, tiny_target, mode="hopkins-hopkins")


class TestBiSMO:
    @pytest.mark.parametrize("method", ["fd", "nmn", "cg"])
    def test_all_variants_decrease_loss(
        self, method, tiny_config, tiny_target, tiny_source, objective
    ):
        solver = BiSMO(
            tiny_config,
            tiny_target,
            method=method,
            unroll_steps=2,
            terms=3,
            damping=1.0 if method == "cg" else 0.0,
            objective=objective,
        )
        res = solver.run(tiny_source, iterations=12)
        assert res.final_loss < res.losses[0]
        assert res.method == f"BiSMO-{method.upper()}"
        assert res.theta_j is not None

    def test_unknown_method(self, tiny_config, tiny_target):
        with pytest.raises(KeyError):
            BiSMO(tiny_config, tiny_target, method="newton")

    def test_source_actually_moves(self, tiny_config, tiny_target, tiny_source, objective):
        solver = BiSMO(tiny_config, tiny_target, method="fd", objective=objective)
        res = solver.run(tiny_source, iterations=5)
        tj0 = init_theta_source(tiny_source, tiny_config)
        assert np.abs(res.theta_j - tj0).max() > 0

    def test_phase_label(self, tiny_config, tiny_target, tiny_source, objective):
        res = BiSMO(tiny_config, tiny_target, method="fd", objective=objective).run(
            tiny_source, iterations=3
        )
        assert all(r.phase == "bilevel" for r in res.history)


class TestCallbackStop:
    @pytest.mark.parametrize(
        "solver, k, phase",
        [
            ("Abbe-MO", 1, "mo"),
            ("Hopkins-MO", 1, "mo"),
            ("NILT", 1, "mo"),
            ("SO", 1, "so"),
            ("MILT", 1, "mo"),  # inside its 16x16 level
            ("AM-SMO(Abbe-Abbe)", 0, "so"),
            ("AM-SMO(Abbe-Abbe)", 3, "mo"),
            ("AM-SMO(Abbe-Hopkins)", 1, "so"),
            ("AM-SMO(Abbe-Hopkins)", 2, "mo"),
            ("BiSMO-NMN", 1, "bilevel"),
            ("BiSMO-UNROLL", 1, "bilevel"),
        ],
    )
    def test_stops_after_the_iteration_that_asked(
        self, solver, k, phase, solver_runs, tiny_target, tiny_source
    ):
        """A truthy callback return at iteration k ends the solve there:
        k + 1 records numbered 0..k, and parameters shaped like the
        problem's (MILT's iterate back on the native grid)."""
        res = solver_runs[solver](lambda rec: rec.iteration >= k)
        assert len(res.history) == k + 1
        assert [r.iteration for r in res.history] == list(range(k + 1))
        assert res.history[-1].phase == phase
        assert res.theta_m.shape == tiny_target.shape
        if res.theta_j is not None:
            assert res.theta_j.shape == tiny_source.shape


class TestSMOResult:
    def test_log_losses(self):
        from repro.smo import IterationRecord

        res = SMOResult(
            method="x",
            theta_m=np.zeros((2, 2)),
            theta_j=None,
            history=[IterationRecord(0, 100.0, 0.1), IterationRecord(1, 10.0, 0.1)],
        )
        np.testing.assert_allclose(res.log_losses(), [2.0, 1.0])
        assert res.best_loss == 10.0
        assert res.final_loss == 10.0

    def test_empty_history_raises(self):
        res = SMOResult(method="x", theta_m=np.zeros(1), theta_j=None)
        with pytest.raises(ValueError):
            _ = res.final_loss
