"""Tests for the fused ``incoherent_image`` primitive (the one-stack case
of ``incoherent_image_stack``): finite-difference gradcheck against the
composed-op reference (real + complex masks, B=1 and B=3), streamed-VJP
parity, exact-zero weight pruning, argument validation, and second
order: a ``create_graph`` backward through the primitive is refused,
and the FFT-free basis oracle's HVPs match the composed graph's."""

from __future__ import annotations

import numpy as np
import pytest

import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.autodiff.grad import gradcheck
from repro.optics import AbbeImaging, OpticalConfig
from repro.smo import ProcessWindowSMOObjective
from repro.smo.parametrization import init_theta_mask, init_theta_source
from tests.oracles import ComposedAbbeImaging, incoherent_image_composed

S, N = 6, 12


@pytest.fixture(scope="module")
def kernels() -> np.ndarray:
    rng = np.random.default_rng(7)
    return (
        rng.standard_normal((S, N, N)) + 1j * rng.standard_normal((S, N, N))
    ) * 0.3


@pytest.fixture(scope="module")
def weights() -> np.ndarray:
    return np.linspace(1.0, 0.2, S)


@pytest.fixture(scope="module")
def paired_setup():
    """Five real kernels in two conjugate pairs plus one self-paired."""
    from repro.optics import fftlib

    rng = np.random.default_rng(21)
    k_reps = rng.standard_normal((3, N, N)) * 0.5  # real kernels
    kernels = np.empty((5, N, N))
    kernels[0] = k_reps[0]
    kernels[1] = fftlib.freq_reverse(k_reps[0])
    kernels[2] = k_reps[1]
    kernels[3] = fftlib.freq_reverse(k_reps[1])
    # Self-paired kernel: symmetric under frequency reversal.
    kernels[4] = k_reps[2] + fftlib.freq_reverse(k_reps[2])
    pairs = np.array([1, 0, 3, 2, 4])
    weights = np.array([0.9, 0.4, 0.7, 0.2, 0.5])
    return kernels, pairs, weights


def _masks(batch: bool, complex_: bool) -> np.ndarray:
    rng = np.random.default_rng(11)
    shape = (3, N, N) if batch else (N, N)
    m = rng.standard_normal(shape)
    if complex_:
        m = m + 1j * rng.standard_normal(shape)
    return m


class TestForwardParity:
    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_fused_matches_composed(self, kernels, weights, batch, complex_):
        m = _masks(batch, complex_)
        with ad.no_grad():
            fused = F.incoherent_image(m, kernels, weights).data
            composed = incoherent_image_composed(m, kernels, weights).data
        assert fused.shape == m.shape
        np.testing.assert_allclose(fused, composed, atol=1e-12)

    @pytest.mark.parametrize("chunk", [1, 2, 4, S, S + 5])
    def test_chunk_size_invariance(self, kernels, weights, chunk):
        m = _masks(True, False)
        with ad.no_grad():
            ref = F.incoherent_image(m, kernels, weights, chunk=S).data
            out = F.incoherent_image(m, kernels, weights, chunk=chunk).data
        np.testing.assert_allclose(out, ref, atol=1e-13)

    def test_single_equals_batch_row(self, kernels, weights):
        m = _masks(True, False)
        with ad.no_grad():
            batched = F.incoherent_image(m, kernels, weights).data
            single = F.incoherent_image(m[1], kernels, weights).data
        np.testing.assert_allclose(single, batched[1], atol=1e-13)


class TestGradients:
    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_grads_match_composed(self, kernels, weights, batch, complex_):
        """Streamed VJP == composed-op backward for mask and weights."""
        m = _masks(batch, complex_)

        def eval_grads(fn):
            mt = ad.Tensor(m, requires_grad=True)
            wt = ad.Tensor(weights, requires_grad=True)
            loss = F.sum(F.power(fn(mt, kernels, wt), 2.0))
            gm, gw = ad.grad(loss, [mt, wt])
            return float(loss.data), gm.data, gw.data

        lf, gmf, gwf = eval_grads(F.incoherent_image)
        lc, gmc, gwc = eval_grads(incoherent_image_composed)
        np.testing.assert_allclose(lf, lc, rtol=1e-12)
        np.testing.assert_allclose(gmf, gmc, atol=1e-10)
        np.testing.assert_allclose(gwf, gwc, atol=1e-10)

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_fd_gradcheck(self, kernels, weights, batch, complex_):
        """Central-difference check of the hand-written VJP itself."""
        m = _masks(batch, complex_)
        gradcheck(
            lambda mt, wt: F.sum(
                F.power(F.incoherent_image(mt, kernels, wt), 2.0)
            ),
            [ad.Tensor(m), ad.Tensor(weights)],
            eps=1e-6,
            rtol=1e-4,
            atol=1e-6,
        )

    def test_mask_only_and_weights_only_paths(self, kernels, weights):
        """The VJP skips work for inputs that don't require grad."""
        m = _masks(False, False)
        mt = ad.Tensor(m, requires_grad=True)
        (gm,) = ad.grad(F.sum(F.incoherent_image(mt, kernels, weights)), [mt])
        assert gm.data.shape == m.shape and not np.iscomplexobj(gm.data)
        wt = ad.Tensor(weights, requires_grad=True)
        (gw,) = ad.grad(F.sum(F.incoherent_image(m, kernels, wt)), [wt])
        assert gw.data.shape == weights.shape
        assert np.abs(gw.data).min() > 0  # every kernel contributes


@pytest.fixture(scope="module")
def crop_paired_setup():
    """``tiny``'s Abbe crops (K = 14 of N = 32): 29 real kernels in 14
    conjugate pairs plus the self-paired centre, under weights that
    differ within every pair and are zero at some points."""
    engine = AbbeImaging(OpticalConfig.preset("tiny"))
    kernels, pairs = engine._pupil_stack.data, engine._conj_pairs
    rng = np.random.default_rng(5)
    weights = rng.random(kernels.shape[0])
    weights[[0, 7, 11]] = 0.0
    mates = pairs != np.arange(pairs.size)
    assert np.all(weights[mates] != weights[pairs[mates]])
    assert np.any(~mates) and kernels.shape[-1] < engine.config.mask_size
    return kernels, pairs, weights, engine.pupil_centres


def _rel_err(got, ref) -> float:
    return float(np.abs(got - ref).max() / np.abs(ref).max())


class TestConjugatePairStreaming:
    """The +/-sigma field-conjugation shortcut for real masks."""

    @staticmethod
    def _assert_paired_matches_unpaired(kernels, pairs, weights, m, centres=None):
        """Pairing folds each pair's two mask-gradient terms into one
        accumulator under the pair-summed weight: exact to rounding."""

        def grads(**kw):
            mt = ad.Tensor(m, requires_grad=True)
            wt = ad.Tensor(weights, requires_grad=True)
            out = F.incoherent_image(mt, kernels, wt, centres=centres, **kw)
            loss = F.sum(F.power(out, 2.0))
            gm, gw = ad.grad(loss, [mt, wt])
            return out.data, gm.data, gw.data

        o1, gm1, gw1 = grads()
        o2, gm2, gw2 = grads(conj_pairs=pairs)
        assert not np.iscomplexobj(gm2)  # a real gradient for a real mask
        np.testing.assert_allclose(o2, o1, atol=1e-12)
        np.testing.assert_allclose(gm2, gm1, atol=1e-10)
        np.testing.assert_allclose(gw2, gw1, atol=1e-10)
        assert _rel_err(gm2, gm1) <= 1e-12
        assert _rel_err(gw2, gw1) <= 1e-12

    @pytest.mark.parametrize("batch", [False, True])
    def test_paired_matches_unpaired(self, paired_setup, batch):
        kernels, pairs, weights = paired_setup
        self._assert_paired_matches_unpaired(
            kernels, pairs, weights, _masks(batch, False)
        )

    @pytest.mark.parametrize("batch", [False, True])
    def test_paired_matches_unpaired_on_crops(self, crop_paired_setup, batch):
        kernels, pairs, weights, centres = crop_paired_setup
        rng = np.random.default_rng(2)
        m = rng.random((3, 32, 32) if batch else (32, 32))
        self._assert_paired_matches_unpaired(kernels, pairs, weights, m, centres)

    def test_paired_adjoint_matches_unpaired(self, crop_paired_setup):
        """The two-term mask adjoint on the same crops, each term with
        its own pair-differing weights."""
        kernels, pairs, weights, centres = crop_paired_setup
        rng = np.random.default_rng(4)
        m = rng.random((2, 32, 32))
        terms = [
            (weights, rng.standard_normal((1, 2, 32, 32))),
            (rng.random(weights.size), rng.standard_normal((1, 2, 32, 32))),
        ]
        paired = F.incoherent_mask_adjoint(m, [kernels], terms, [pairs], centres)
        plain = F.incoherent_mask_adjoint(m, [kernels], terms, [None], centres)
        assert not np.iscomplexobj(paired)
        assert _rel_err(paired, plain) <= 1e-12

    def test_complex_mask_ignores_pairing(self, paired_setup):
        """Pairing relies on real fields; complex masks take the exact
        unpaired stream instead."""
        kernels, pairs, weights = paired_setup
        m = _masks(False, True)
        with ad.no_grad():
            paired = F.incoherent_image(m, kernels, weights, conj_pairs=pairs)
            plain = incoherent_image_composed(m, kernels, weights)
        np.testing.assert_allclose(paired.data, plain.data, atol=1e-12)

    def test_invalid_pairing_rejected(self, paired_setup):
        kernels, _, weights = paired_setup
        m = _masks(False, False)
        with pytest.raises(ValueError):  # not an involution
            F.incoherent_image(
                m, kernels, weights, conj_pairs=np.array([1, 2, 3, 4, 0])
            )
        with pytest.raises(ValueError):  # wrong length
            F.incoherent_image(m, kernels, weights, conj_pairs=np.arange(4))

    def test_abbe_engine_builds_verified_pairing(self):
        from repro.optics import AbbeImaging, OpticalConfig

        cfg = OpticalConfig.preset("tiny")
        engine = AbbeImaging(cfg)
        pairs = engine._conj_pairs
        assert pairs is not None
        s = engine.num_source_points
        assert np.array_equal(pairs[pairs], np.arange(s))
        # Defocused stacks are complex: pairing must opt out.
        ((_, defocused),) = engine.condition_stacks((80.0,))
        assert defocused is None


class TestZeroWeightPruning:
    """Exact-zero weights skip their kernels in the forward only."""

    @pytest.mark.parametrize("use_pairs", [False, True], ids=["unpaired", "paired"])
    def test_vjp_keeps_every_kernel(self, paired_setup, use_pairs):
        """Values and both gradients match the composed oracle, including
        the (nonzero) weight gradient at the pruned kernels."""
        kernels, pairs, _ = paired_setup
        weights = np.array([0.4, 0.0, 0.3, 0.0, 0.3])
        m = _masks(True, False)

        def run(fn, **kw):
            mt = ad.Tensor(m, requires_grad=True)
            wt = ad.Tensor(weights, requires_grad=True)
            out = fn(mt, kernels, wt, **kw)
            gm, gw = ad.grad(F.sum(F.power(out, 2.0)), [mt, wt])
            return out.data, gm.data, gw.data

        fused = run(F.incoherent_image, conj_pairs=pairs if use_pairs else None)
        composed = run(incoherent_image_composed)
        for got, ref in zip(fused, composed):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        gw = fused[2]
        assert np.all(np.abs(gw[weights == 0.0]) > 1e-3 * np.abs(gw).max())


class TestValidation:
    def test_bad_shapes_raise(self, kernels, weights):
        with pytest.raises(ValueError):
            F.incoherent_image(np.zeros(N), kernels, weights)  # 1-D mask
        with pytest.raises(ValueError):
            F.incoherent_image(np.zeros((N + 1, N + 1)), kernels, weights)
        with pytest.raises(ValueError):
            F.incoherent_image(np.zeros((N, N)), kernels, weights[:-1])
        with pytest.raises(ValueError):
            F.incoherent_image(np.zeros((N, N)), kernels[0], weights)
        with pytest.raises(ValueError):
            F.incoherent_image(np.zeros((N, N)), kernels, weights, chunk=0)

    def test_complex_weights_rejected(self, kernels, weights):
        with pytest.raises(TypeError):
            F.incoherent_image(np.zeros((N, N)), kernels, weights * 1j)

    def test_pupil_grad_rejected(self, kernels, weights):
        kt = ad.Tensor(kernels, requires_grad=True)
        with pytest.raises(ValueError):
            F.incoherent_image(np.zeros((N, N)), kt, weights)


class TestCreateGraphFallback:
    """Second order through imaging: the fused primitive's VJP is
    graph-free and refuses a ``create_graph`` backward; HVPs come from
    the intensity basis, held to the composed graph."""

    @pytest.fixture(scope="class")
    def smo_setup(self):
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
        return cfg, theta_j, theta_m, objective

    def test_hvp_matches_basis_oracle(self, smo_setup):
        """Source HVPs through the composed graph (``ComposedAbbeImaging``)
        must equal the FFT-free intensity-basis oracle — the exactness
        property BiSMO's inner-Hessian products rely on."""
        cfg, theta_j, theta_m, objective = smo_setup
        composed = ProcessWindowSMOObjective(
            cfg, objective.target.data, engine=ComposedAbbeImaging(cfg)
        )
        tm_fixed = ad.Tensor(theta_m)
        rng = np.random.default_rng(5)
        v = ad.Tensor(rng.standard_normal(theta_j.shape))
        x = ad.Tensor(theta_j)
        h_composed = ad.hvp(lambda tj: composed.loss(tj, tm_fixed), x, v)
        basis_loss = objective.source_only_loss(theta_m)
        h_basis = ad.hvp(basis_loss, x, v)
        scale = np.abs(h_basis.data).max()
        np.testing.assert_allclose(
            h_composed.data, h_basis.data, rtol=1e-8,
            atol=1e-8 * max(scale, 1e-30),
        )

    def test_create_graph_backward_is_refused(self, kernels, weights):
        m = ad.Tensor(_masks(False, False), requires_grad=True)
        out = F.sum(F.power(F.incoherent_image(m, kernels, weights), 2.0))
        with pytest.raises(NotImplementedError) as err:
            ad.grad(out, [m], create_graph=True)
        for name in (
            "incoherent_image_stack", "SourceBasisLoss", "ComposedAbbeImaging"
        ):
            assert name in str(err.value)
        (g,) = ad.grad(out, [m])  # the graph-free backward still runs
        assert np.all(np.isfinite(g.data))

    @pytest.mark.parametrize("behind", [False, True])
    def test_create_graph_backward_stops_at_the_wanted_input(
        self, kernels, weights, behind
    ):
        """A ``create_graph`` backward to an intermediate ``y`` never
        calls the VJP of the imaging node at or behind ``y``."""
        m = ad.Tensor(_masks(False, False), requires_grad=True)
        y = F.incoherent_image(m, kernels, weights)
        if behind:
            y = F.mul(y, 3.0)
        (g,) = ad.grad(F.sum(F.power(y, 2.0)), [y], create_graph=True)
        np.testing.assert_allclose(g.data, 2.0 * y.data, rtol=1e-15)

    def test_create_graph_backward_through_imaging_still_raises(
        self, kernels, weights
    ):
        """With the imaging node between the output and the wanted
        input, the walk must call its VJP, and refuses."""
        m = ad.Tensor(_masks(False, False), requires_grad=True)
        x = F.mul(m, 2.0)
        y = F.incoherent_image(x, kernels, weights)
        with pytest.raises(NotImplementedError, match="incoherent_image_stack"):
            ad.grad(F.sum(F.power(y, 2.0)), [x], create_graph=True)
