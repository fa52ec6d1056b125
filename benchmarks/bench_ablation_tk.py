"""Algorithm 2 hyperparameter ablation: unroll steps T and terms K.

The paper fixes T = 3 and K = 5, citing BLO literature that small
unrolls suffice.  This bench sweeps T in {1, 3} and K in {0, 5} for
BiSMO-NMN (K = 0 degenerates to BiSMO-FD, Section 3.2.4) and reports the
final loss of each setting under the same outer-iteration budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.runner import _annular_source, _target_image
from repro.smo import BiSMO, ProcessWindowSMOObjective

from conftest import BENCH_ITERS


@pytest.mark.parametrize("unroll", [1, 3])
@pytest.mark.parametrize("terms", [0, 5])
def test_unroll_terms_sweep(benchmark, settings, datasets, unroll, terms):
    cfg = settings.config
    clip = datasets[0][0]
    target = _target_image(clip, cfg)
    source = _annular_source(cfg)
    objective = ProcessWindowSMOObjective(cfg, target)

    def run():
        solver = BiSMO(
            cfg,
            target,
            method="nmn",
            unroll_steps=unroll,
            terms=terms,
            objective=objective,
        )
        return solver.run(source, iterations=BENCH_ITERS)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nBiSMO-NMN T={unroll} K={terms}: "
        f"{result.losses[0]:.0f} -> {result.final_loss:.0f} "
        f"({result.runtime_seconds:.1f}s)"
    )
    benchmark.extra_info["final_loss"] = result.final_loss
    benchmark.extra_info["runtime_s"] = result.runtime_seconds
    assert np.all(np.isfinite(result.losses))
    assert result.final_loss < result.losses[0]
