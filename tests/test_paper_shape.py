"""The paper's result shapes at the ``small`` preset.

Tables 3 and 4 (the bilevel methods do not lose to NILT on L2 + PVB or
on EPE), Fig. 3 (an SMO curve ends lowest), and the two Section 3
ablations (sigmoid vs cosine mask activation; unroll steps T x Neumann
terms K). Settings: one clip per dataset and 25 iterations; Fig. 3 runs
60 steps at lr 0.01 on each dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.harness import (
    METHOD_ORDER,
    RunSettings,
    figure3_series,
    run_matrix,
    table3,
    table4,
)
from repro.harness.figures import FIGURE3_METHODS
from repro.harness.runner import _annular_source, _target_image
from repro.layouts import DATASET_NAMES, dataset_by_name
from repro.opt import make_optimizer
from repro.smo import (
    BiSMO,
    ProcessWindowSMOObjective,
    init_theta_mask,
    init_theta_source,
    mask_from_theta,
    mask_from_theta_cosine,
    source_from_theta,
)
from tests.oracles import smo_loss_from_aerial

ITERATIONS = 25
SETTINGS = RunSettings.preset("small", iterations=ITERATIONS)
CFG = SETTINGS.config


@pytest.fixture(scope="module")
def matrix_records():
    """The Table 3 / Table 4 sweep: every method on one clip per dataset."""
    datasets = [dataset_by_name(name, num_clips=1) for name in DATASET_NAMES]
    return run_matrix(
        datasets, SETTINGS, methods=METHOD_ORDER, clips_per_dataset=1, workers=2
    )


@pytest.fixture(scope="module")
def iccad13_problem():
    """The first ICCAD13 clip's target and the annular source."""
    target = _target_image(dataset_by_name("ICCAD13", num_clips=1)[0], CFG)
    return target, _annular_source(CFG)


def test_table3_a_bismo_variant_beats_nilt_on_l2_plus_pvb(matrix_records):
    table = table3(matrix_records)
    ratio = dict(zip(table.columns, table.row("Ratio")))
    best_bismo = min(
        ratio[f"{m} L2"] + ratio[f"{m} PVB"]
        for m in ("BiSMO-FD", "BiSMO-CG", "BiSMO-NMN")
    )
    assert best_bismo <= ratio["NILT L2"] + ratio["NILT PVB"] + 1e-9


def test_table4_bismo_epe_not_worse_than_nilt(matrix_records):
    table = table4(matrix_records)
    epe = dict(zip(table.columns, table.row("EPE avg.")))
    best_bismo = min(epe["BiSMO-FD"], epe["BiSMO-CG"], epe["BiSMO-NMN"])
    assert best_bismo <= epe["NILT"] + 1e-9


@pytest.mark.parametrize("dataset_name", DATASET_NAMES)
def test_figure3_an_smo_curve_ends_lowest(dataset_name):
    ds = dataset_by_name(dataset_name, num_clips=1)
    settings = RunSettings.preset("small", iterations=60, lr=0.01)
    series = figure3_series(ds[0], settings, dataset_name=ds.name)
    assert {s.label for s in series} == set(FIGURE3_METHODS)
    solid = [float(s.values[-1]) for s in series if s.style == "solid"]
    dashed = [float(s.values[-1]) for s in series if s.style == "dashed"]
    assert min(solid) <= min(dashed) + 0.05


def _mask_only_losses(target, source, objective, activation):
    """Adam on theta_M alone (source fixed) under one mask activation."""
    theta_m = init_theta_mask(target, CFG)
    if activation is mask_from_theta_cosine:
        # the cosine activation peaks at theta = pi / alpha_m
        theta_m = np.where(theta_m > 0, np.pi / CFG.alpha_m, 0.0)
    src = source_from_theta(ad.Tensor(init_theta_source(source, CFG)), CFG)
    opt = make_optimizer("adam", 0.1)
    losses = []
    for _ in range(ITERATIONS):
        tm = ad.Tensor(theta_m, requires_grad=True)
        aerial = objective.engine.aerial(activation(tm, CFG), src)
        loss = smo_loss_from_aerial(aerial, objective.target, CFG)
        (g,) = ad.grad(loss, [tm])
        theta_m = opt.step(theta_m, g.data)
        losses.append(float(loss.data))
    return np.array(losses)


def test_sigmoid_activation_converges_at_least_as_well_as_cosine(iccad13_problem):
    target, source = iccad13_problem
    objective = ProcessWindowSMOObjective(CFG, target)
    sigmoid = _mask_only_losses(target, source, objective, mask_from_theta)
    cosine = _mask_only_losses(target, source, objective, mask_from_theta_cosine)
    assert np.all(np.isfinite(sigmoid))
    assert sigmoid[-1] <= 1.05 * cosine[-1]


@pytest.mark.parametrize("unroll", [1, 3])
@pytest.mark.parametrize("terms", [0, 5])
def test_bismo_nmn_unroll_terms_sweep_descends(iccad13_problem, unroll, terms):
    target, source = iccad13_problem
    result = BiSMO(
        CFG, target, method="nmn", unroll_steps=unroll, terms=terms,
        objective=ProcessWindowSMOObjective(CFG, target),
    ).run(source, iterations=ITERATIONS)
    assert np.all(np.isfinite(result.losses))
    assert result.final_loss < result.losses[0]
