"""Section 4.1 Abbe-acceleration claim: batched source-point imaging.

The paper's argument: Abbe's per-source-point contributions are
independent, so with enough parallel lanes Abbe matches Hopkins' wall
time.  On one CPU the analogue is batching the per-point FFTs into one
vectorized stack; this bench quantifies the batched-vs-loop speedup and
the remaining Abbe/Hopkins gap (~S/Q, Section 3.1's complexity ratio).
The loop is the full-grid per-point reference of ``tests/oracles.py``:
one N-point transform per source point, against the engine's batched
fields on their K x K pupil crops.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.harness.runner import _annular_source, _target_image
from repro.optics import AbbeImaging, HopkinsImaging

# The full-grid per-point loop is a test oracle (tests/oracles.py).
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.oracles import FullGridAbbeImaging  # noqa: E402


@pytest.fixture(scope="module")
def setup(settings, datasets):
    cfg = settings.config
    clip = datasets[0][0]
    target = _target_image(clip, cfg)
    source = _annular_source(cfg)
    abbe = AbbeImaging(cfg)
    hopkins = HopkinsImaging(cfg, source, num_kernels=cfg.socs_terms)
    mask = ad.Tensor(target)
    src = ad.Tensor(source)
    return abbe, hopkins, mask, src, FullGridAbbeImaging(cfg)


def test_abbe_forward_batched(benchmark, setup):
    abbe, _, mask, src, _ = setup
    with ad.no_grad():
        benchmark(lambda: abbe.aerial(mask, src).data)
    benchmark.extra_info["source_points"] = abbe.num_source_points


def test_abbe_forward_loop(benchmark, setup):
    """The unbatched reference — the 'serial Abbe' the paper accelerates."""
    _, _, mask, src, oracle = setup
    with ad.no_grad():
        benchmark(lambda: oracle.aerial_loop(mask, src).data)


def test_hopkins_forward(benchmark, setup):
    _, hopkins, mask, _, _ = setup
    with ad.no_grad():
        benchmark(lambda: hopkins.aerial(mask).data)
    benchmark.extra_info["kernels"] = hopkins.num_kernels


def test_abbe_forward_backward(benchmark, setup):
    """Forward + both gradients — the real per-iteration cost of SMO."""
    abbe, _, mask, src, _ = setup

    def step():
        m = ad.Tensor(mask.data, requires_grad=True)
        s = ad.Tensor(src.data + 0.05, requires_grad=True)
        loss = F.sum(F.power(abbe.aerial(m, s), 2.0))
        gm, gs = ad.grad(loss, [m, s])
        return gm.data, gs.data

    benchmark(step)


def test_batched_equals_loop_result(setup):
    """Correctness guard for the acceleration: identical images."""
    abbe, _, mask, src, oracle = setup
    with ad.no_grad():
        fast = abbe.aerial(mask, src).data
        slow = oracle.aerial_loop(mask, src).data
    np.testing.assert_allclose(fast, slow, atol=1e-12)
