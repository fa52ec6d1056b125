"""Shared fixtures: tiny optical setups sized for unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import GridSpec, Rect, rasterize
from repro.optics import OpticalConfig, SourceGrid, annular


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "thread_stress: concurrency stress tests; CI runs them "
        "serialized (-m thread_stress in a dedicated step) so they "
        "don't fight other tests for the runner's cores",
    )
    config.addinivalue_line(
        "markers",
        "fault_injection: resilience tests that kill worker processes "
        "or break pools on purpose; CI runs them serialized "
        "(-m fault_injection in a dedicated step) so deliberate "
        "process churn can't destabilize unrelated tests",
    )


@pytest.fixture(scope="session")
def tiny_config() -> OpticalConfig:
    """32x32 mask over a 500 nm tile, 7x7 source — fast but physical."""
    return OpticalConfig.preset("tiny")


@pytest.fixture(scope="session")
def tiny_source(tiny_config) -> np.ndarray:
    grid = SourceGrid.from_config(tiny_config)
    return annular(grid, tiny_config.sigma_out, tiny_config.sigma_in)


@pytest.fixture(scope="session")
def tiny_rects() -> list[Rect]:
    """Two features inside the 500 nm tile: a bar and a short stub."""
    return [Rect(150, 100, 350, 180), Rect(150, 260, 220, 420)]


@pytest.fixture(scope="session")
def tiny_target(tiny_config, tiny_rects) -> np.ndarray:
    grid = GridSpec(tiny_config.mask_size, tiny_config.pixel_nm)
    return (rasterize(tiny_rects, grid) >= 0.5).astype(np.float64)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def solver_runs(tiny_config, tiny_target, tiny_source):
    """Every solver kind as ``name -> run(callback=None)``: a short solve
    of the tiny problem (6 iterations; AM-SMO 2 rounds of 2 + 2 steps;
    MILT's first 3 iterations on its 16x16 level)."""
    from repro.baselines import MultiLevelILT, NILTBaseline
    from repro.smo import (
        AMSMO,
        AbbeMO,
        BiSMO,
        HopkinsMO,
        SourceOptimizer,
        init_theta_mask,
        init_theta_source,
    )

    cfg, target, source = tiny_config, tiny_target, tiny_source

    def am(mode, **kw):
        return lambda cb=None: AMSMO(
            cfg, target, mode=mode, rounds=2, so_steps=2, mo_steps=2, **kw
        ).run(source, callback=cb)

    return {
        "Abbe-MO": lambda cb=None: AbbeMO(cfg, target, source).run(
            iterations=6, callback=cb
        ),
        "Hopkins-MO": lambda cb=None: HopkinsMO(
            cfg, target, source, num_kernels=4
        ).run(iterations=6, callback=cb),
        "NILT": lambda cb=None: NILTBaseline(
            cfg, target, source, num_kernels=4
        ).run(iterations=6, callback=cb),
        "SO": lambda cb=None: SourceOptimizer(cfg, target).run(
            init_theta_mask(target, cfg),
            init_theta_source(source, cfg),
            iterations=6,
            callback=cb,
        ),
        "MILT": lambda cb=None: MultiLevelILT(
            cfg, target, source, levels=2, num_kernels=4
        ).run(iterations=6, callback=cb),
        "AM-SMO(Abbe-Abbe)": am("abbe-abbe"),
        "AM-SMO(Abbe-Hopkins)": am("abbe-hopkins", num_kernels=4),
        "BiSMO-NMN": lambda cb=None: BiSMO(
            cfg, target, method="nmn", unroll_steps=1, terms=2
        ).run(source, iterations=6, callback=cb),
        "BiSMO-UNROLL": lambda cb=None: BiSMO(
            cfg, target, method="unroll", unroll_steps=1
        ).run(source, iterations=6, callback=cb),
    }
