"""FFT-seam tests with the test-side :class:`tests.seam.SeamCounter`.

The counter wraps ``NumpyBackend.fft2``/``ifft2``, counts the exact
number of 2-D transforms every call performs, and rejects any
``numpy.fft``/``scipy.fft`` transform issued around the seam.  These
tests prove four properties of the hot path:

* a full BiSMO objective evaluation (forward + VJP) and the graph-free
  ``aerial_conditions_fast`` judge path issue **every** transform
  through the seam, with bitwise unchanged results;
* the fused primitive performs **exactly** the predicted number of
  transforms, with the conjugate-pair reduction and the forward's
  zero-weight pruning included — so a pairing regression
  (re-transforming mirrored kernels) fails an exact-count assertion
  here rather than only showing up in a bench.  On cropped pupils the
  prediction is one mask FFT, B transforms per field at K, and one
  resample pair of B transforms per stack (forward) or per stack and
  term (the VJP's low-pass), plus the VJP's one final IFFT;
* the several-term mask adjoint folds its terms into one upstream per
  field: B·R field transforms whatever the term count T, where one
  transform per term would make T·B·R;
* the benchmark tracer (``smobench/layers.py``, loaded read-only) finds
  its patch points and sees exactly the transforms the counter sees.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import AbbeImaging, OpticalConfig, backend, fftlib
from repro.smo.objective import ProcessWindowSMOObjective
from repro.smo.parametrization import init_theta_mask, init_theta_source
from tests.seam import KEYS, OutOfSeamFFT, SeamCounter

N = 12
CHUNK = 8  # one stream chunk for the S=5 fixtures below


@pytest.fixture(scope="module")
def paired():
    rng = np.random.default_rng(21)
    k_reps = rng.standard_normal((3, N, N)) * 0.5
    kernels = np.stack(
        [
            k_reps[0],
            fftlib.freq_reverse(k_reps[0]),
            k_reps[1],
            fftlib.freq_reverse(k_reps[1]),
            k_reps[2] + fftlib.freq_reverse(k_reps[2]),  # self-paired
        ]
    )
    pairs = np.array([1, 0, 3, 2, 4])
    weights = np.array([0.9, 0.4, 0.7, 0.2, 0.5])
    return kernels, pairs, weights


@pytest.fixture(scope="module")
def smo_setup():
    cfg = OpticalConfig.preset("tiny")
    rng = np.random.default_rng(3)
    targets = (rng.random((2, cfg.mask_size, cfg.mask_size)) > 0.7).astype(
        np.float64
    )
    source = np.full((cfg.source_size,) * 2, 0.4)
    theta_j = init_theta_source(source, cfg)
    theta_m = init_theta_mask(targets, cfg)
    objective = ProcessWindowSMOObjective(
        cfg, targets, engine=AbbeImaging(cfg)
    )
    return cfg, source, targets, theta_j, theta_m, objective


def _expected_transforms(batch: int, s: int, cp) -> tuple:
    """(fft2, ifft2) transform counts for one fused forward + VJP.

    The forward transforms the mask batch once and inverse-transforms
    one field per streamed representative kernel; the backward
    recomputes the fields, forward-transforms them, and runs one final
    inverse transform for the mask cotangent.
    """
    reps = s if cp is None else int(np.count_nonzero(cp >= np.arange(s)))
    return batch + batch * reps, 2 * batch * reps + batch


def _expected_crop_transforms(batch: int, reps: int) -> tuple:
    """(fft2, ifft2) transform counts for one fused forward + one-term VJP
    of a single cropped stack: the whole-grid counts plus one resample
    pair per direction (upsample FFT_K + IFFT_N, low-pass FFT_N +
    IFFT_K)."""
    n_fft2, n_ifft2 = _expected_transforms(batch, reps, None)
    return n_fft2 + 2 * batch, n_ifft2 + 2 * batch


def _cropped_pass(smo_setup, use_pairs):
    """One forward + VJP through the engine's cropped pupils (nominal
    stack, one chunk); returns ``(tiles, representatives)``."""
    _, source, targets, _, _, objective = smo_setup
    engine = objective.engine
    (stack, cp), = engine.condition_stacks((0.0,))
    cp = cp if use_pairs else None
    w = engine.normalized_weights(ad.Tensor(source)).data
    s = stack.shape[0]
    mt = ad.Tensor(targets, requires_grad=True)
    out = F.incoherent_image(
        mt, stack, w, chunk=s, conj_pairs=cp, centres=engine.pupil_centres
    )
    ad.grad(F.sum(F.power(out, 2.0)), [mt])
    reps = s if cp is None else int(np.count_nonzero(cp >= np.arange(s)))
    return targets.shape[0], reps


def _fused_pass(kernels, weights, cp):
    rng = np.random.default_rng(11)
    mt = ad.Tensor(rng.standard_normal((3, N, N)), requires_grad=True)
    wt = ad.Tensor(weights, requires_grad=True)
    out = F.incoherent_image(mt, kernels, wt, chunk=CHUNK, conj_pairs=cp)
    loss = F.sum(F.power(out, 2.0))
    gm, gw = ad.grad(loss, [mt, wt])
    return out.data, gm.data, gw.data


class TestSeamEnforcement:
    def test_raw_array_rejected_by_ffts(self):
        """A transform issued around the seam fails; through it, it is
        counted, and the patches come off on exit."""
        raw = np.ones((2, 4, 4), np.complex128)
        originals = (backend.NumpyBackend.fft2, np.fft.fft2, scipy.fft.ifft2)
        with SeamCounter() as seam:
            with pytest.raises(OutOfSeamFFT):
                np.fft.fft2(raw)
            with pytest.raises(OutOfSeamFFT):
                scipy.fft.ifft2(raw)
            backend.HOST.ifft2(backend.HOST.fft2(raw[0]))
            backend.HOST.fft2(raw)
            assert seam.counters == {
                "fft2_calls": 2,
                "ifft2_calls": 1,
                "fft2_transforms": 3,
                "ifft2_transforms": 1,
            }
        assert (backend.NumpyBackend.fft2, np.fft.fft2, scipy.fft.ifft2) == originals

    def test_counters_reset(self):
        with SeamCounter() as seam:
            backend.HOST.fft2(np.ones((4, 4)))
            assert any(seam.counters.values())
            seam.reset()
        assert set(seam.counters) == set(KEYS)
        assert not any(seam.counters.values())


class TestExactTransformCounts:
    @pytest.mark.parametrize("use_pairs", [False, True], ids=["unpaired", "paired"])
    def test_fused_forward_backward(self, paired, use_pairs):
        kernels, pairs, weights = paired
        cp = pairs if use_pairs else None
        with SeamCounter() as seam:
            _fused_pass(kernels, weights, cp)
        counts = seam.counters
        n_fft2, n_ifft2 = _expected_transforms(3, len(kernels), cp)
        assert counts["fft2_transforms"] == n_fft2
        assert counts["ifft2_transforms"] == n_ifft2
        # single-chunk streaming: 1 forward + 1 backward fft2 call,
        # 1 forward + 1 recompute + 1 final-cotangent ifft2 call
        assert counts["fft2_calls"] == 2
        assert counts["ifft2_calls"] == 3

    def test_conj_pairs_reduce_transform_count(self, paired):
        """The pairing must actually halve the streamed work: 3
        representatives instead of 5 kernels."""
        kernels, pairs, _ = paired
        unpaired = _expected_transforms(3, len(kernels), None)
        paired_counts = _expected_transforms(3, len(kernels), pairs)
        assert paired_counts[0] < unpaired[0]
        assert paired_counts[1] < unpaired[1]

    def test_aerial_conditions_fast(self, smo_setup):
        """Graph-free judge path: one mask FFT of B transforms shared by
        every condition, then B field transforms per streamed kernel —
        the nominal stack's conjugate-pair representatives, the
        defocused (complex) stack's every source point."""
        cfg, source, targets, _, _, objective = smo_setup
        engine = objective.engine
        conditions = (0.0, 80.0)
        with fftlib.use(condition_workers=1):
            ref = engine.aerial_conditions_fast(targets, source, conditions)
            with SeamCounter() as seam:
                out = engine.aerial_conditions_fast(targets, source, conditions)
        counts = seam.counters
        np.testing.assert_array_equal(out, ref)
        n_batch = targets.shape[0]
        cp = engine._conj_pairs
        n_src = engine._pupil_stack.data.shape[0]
        n_reps = int(np.count_nonzero(cp >= np.arange(n_src)))
        chunk = fftlib.get_stream_chunk()
        # tiny crops to K = 14 of N = 32: each stack's K-grid image is
        # resampled with one FFT_K + IFFT_N pair of B transforms.
        assert engine._pupil_stack.shape[-1] < cfg.mask_size
        assert counts["fft2_calls"] == 1 + len(conditions)
        assert counts["fft2_transforms"] == n_batch * (1 + len(conditions))
        assert counts["ifft2_calls"] == (
            math.ceil(n_reps / chunk) + math.ceil(n_src / chunk) + len(conditions)
        )
        assert counts["ifft2_transforms"] == n_batch * (
            n_reps + n_src + len(conditions)
        )

    @pytest.mark.parametrize("use_pairs", [False, True], ids=["unpaired", "paired"])
    def test_cropped_forward_backward(self, smo_setup, use_pairs):
        """Forward + VJP through the engine's cropped pupils: every field
        is one K-point transform per tile, plus one resample pair per
        direction."""
        with SeamCounter() as seam:
            batch, reps = _cropped_pass(smo_setup, use_pairs)
        counts = seam.counters
        n_fft2, n_ifft2 = _expected_crop_transforms(batch, reps)
        assert counts["fft2_transforms"] == n_fft2
        assert counts["ifft2_transforms"] == n_ifft2
        # mask FFT, upsample FFT_K, low-pass FFT_N, field FFTs
        assert counts["fft2_calls"] == 4
        # fields, upsample IFFT_N, low-pass IFFT_K, recompute, final
        assert counts["ifft2_calls"] == 5

    @pytest.mark.parametrize("use_pairs", [False, True], ids=["unpaired", "paired"])
    def test_zero_weights_skip_forward_transforms(self, paired, use_pairs):
        """A kernel whose (pair-summed) weight is exactly zero is never
        transformed by the forward."""
        kernels, pairs, _ = paired
        weights = np.array([0.9, 0.4, 0.0, 0.0, 0.5])  # pair (2, 3) is zero
        cp = pairs if use_pairs else None
        live = 2 if use_pairs else 3  # reps {0, 4} vs kernels {0, 1, 4}
        with SeamCounter() as seam:
            F.incoherent_image(
                np.ones((3, N, N)), kernels, weights, chunk=CHUNK, conj_pairs=cp
            )
        counts = seam.counters
        assert counts["fft2_transforms"] == 3
        assert counts["ifft2_transforms"] == 3 * live


def _adjoint_transforms(preset, conditions, terms):
    """Seam counts of one ``incoherent_mask_adjoint`` pass with
    ``terms`` terms over the engine's stacks at ``conditions``, and the
    ``(B, R per stack, cropped)`` it ran on."""
    cfg = OpticalConfig.preset(preset)
    engine = AbbeImaging(cfg)
    stacks, pairs = zip(*engine.condition_stacks(conditions))
    n, batch = cfg.mask_size, 2
    rng = np.random.default_rng(5)
    mask = rng.random((batch, n, n))
    s = stacks[0].shape[0]
    terms_ = [
        (rng.random(s), rng.standard_normal((len(stacks), batch, n, n)))
        for _ in range(terms)
    ]
    reps = [
        s if cp is None or st.is_complex
        else int(np.count_nonzero(cp >= np.arange(s)))
        for st, cp in zip(stacks, pairs)
    ]
    with SeamCounter() as seam:
        F.incoherent_mask_adjoint(
            mask, [st.data for st in stacks], terms_, list(pairs),
            engine.pupil_centres,
        )
    return seam.counters, batch, reps, stacks[0].shape[-1] < n


class TestFoldedMaskAdjoint:
    """The streamed mask adjoint folds its terms into one upstream per
    field: B·R field transforms whatever the term count T, where one
    transform per term would make T·B·R."""

    @pytest.mark.parametrize("terms", [1, 2, 5])
    @pytest.mark.parametrize(
        "preset, conditions",
        [("tiny", (0.0,)), ("small", (0.0, 40.0, 80.0))],
        ids=["crop-paired", "whole-grid-3-stacks"],
    )
    def test_one_field_transform_per_field(self, preset, conditions, terms):
        counts, batch, reps, crop = _adjoint_transforms(preset, conditions, terms)
        assert crop == (preset == "tiny")
        fields = batch * sum(reps)
        # Per cropped stack, each term's upstream is low-passed onto the
        # K grid: one FFT_N + IFFT_K pair of B transforms.
        lowpass = terms * batch * len(reps) if crop else 0
        # One mask FFT, the low-passes, one transform per field.
        assert counts["fft2_transforms"] == batch + lowpass + fields
        # The recomputed fields, the low-passes, one final IFFT.
        assert counts["ifft2_transforms"] == fields + lowpass + batch
        blocks = sum(math.ceil(r / fftlib.get_stream_chunk()) for r in reps)
        assert counts["fft2_calls"] == 1 + (terms * len(reps) if crop else 0) + blocks


class TestBismoIterationUnderStrict:
    def test_full_objective_pass_is_in_seam_and_bitwise_numpy(self, smo_setup):
        """A complete BiSMO outer evaluation — fused condition-stack
        forward plus VJPs w.r.t. both source and mask parameters —
        issues every transform through the seam (zero out-of-seam FFTs)
        and is bitwise identical to an uncounted pass."""
        _, _, _, theta_j, theta_m, objective = smo_setup

        def one_pass():
            tj = ad.Tensor(theta_j, requires_grad=True)
            tm = ad.Tensor(theta_m, requires_grad=True)
            loss = objective.loss(tj, tm)
            gj, gm = ad.grad(loss, [tj, tm])
            return float(loss.data), gj.data, gm.data

        l_ref, gj_ref, gm_ref = one_pass()
        with SeamCounter() as seam:
            l_counted, gj_counted, gm_counted = one_pass()
        assert l_counted == l_ref
        np.testing.assert_array_equal(gj_counted, gj_ref)
        np.testing.assert_array_equal(gm_counted, gm_ref)
        # the hot path really went through the seam
        assert seam.counters["fft2_calls"] > 0
        assert seam.counters["ifft2_calls"] > 0


def _load_tracer():
    """A fresh tracer from the frozen benchmark's ``layers.py``."""
    path = Path(__file__).resolve().parents[1] / "smobench" / "layers.py"
    spec = importlib.util.spec_from_file_location("smobench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.Tracer()


class TestBenchmarkTracer:
    def test_patch_points_and_fft_counts(self, smo_setup):
        """The frozen benchmark's tracer, installed around one cropped
        forward + VJP, finds every patch point but the known absences
        and records one ``fft.*`` span per seam call.  The absences are
        the modules that import no ``obs_span``: the optics engines, and
        the solver modules whose iterations run on the one loop in
        ``repro.smo.mo_only``."""
        tracer = _load_tracer()
        with SeamCounter() as seam:
            tracer.install()
            try:
                _cropped_pass(smo_setup, use_pairs=True)
            finally:
                tracer.uninstall()
        assert tracer.missing == [
            "repro.smo.bismo.obs_span",
            "repro.smo.am.obs_span",
            "repro.smo.so_only.obs_span",
            "repro.baselines.nilt.obs_span",
            "repro.baselines.milt.obs_span",
            "repro.optics.abbe.obs_span",
            "repro.optics.hopkins.obs_span",
        ]
        for name in ("fft2", "ifft2"):
            spans = [sp for sp in tracer.spans if sp.name == "fft." + name]
            assert len(spans) == seam.counters[name + "_calls"] > 0
            assert sum(sp.counts[0] for sp in spans) == seam.counters[
                name + "_transforms"
            ]

    @pytest.mark.parametrize(
        "solver",
        [
            "Abbe-MO",
            "Hopkins-MO",
            "NILT",
            "MILT",
            "AM-SMO(Abbe-Abbe)",
            "AM-SMO(Abbe-Hopkins)",
            "SO",
            "BiSMO-NMN",
            "BiSMO-UNROLL",
        ],
    )
    def test_one_solver_iter_span_per_record(self, solver, solver_runs):
        """Every solver's iterations open inside the tracer: exactly one
        ``solver.iter`` span per :class:`IterationRecord`, so the traced
        ``smo.iterations`` and ``fft.transforms_per_iter`` stay live."""
        tracer = _load_tracer()
        tracer.install()
        try:
            result = solver_runs[solver]()
        finally:
            tracer.uninstall()
        iters = [sp for sp in tracer.spans if sp.name == "solver.iter"]
        assert len(result.history) > 0
        assert len(iters) == len(result.history)
