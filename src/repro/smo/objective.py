"""SMO objectives — Equations (7)-(9) of the paper.

``L_smo := L_so := L_mo = gamma * L2 + eta * L_pvb`` where

* ``L2``   = || Z - Z_t ||^2 at nominal dose (Eq. (7)),
* ``L_pvb`` = || Z_max - Z_t ||^2 + || Z_min - Z_t ||^2 at the +/-2 %
  dose corners (Eq. (8)).

Dose handling: the paper substitutes ``M_min = d_min * sigma(alpha_m
theta_M)`` into the forward model.  Because Abbe/Hopkins intensity is a
quadratic form in the mask transmission, scaling the mask by ``d``
scales the whole aerial image by ``d^2`` *exactly*; we therefore image
once and evaluate the three dose corners as ``sigmoid(beta * (d^2 * I -
I_tr))``, which is algebraically identical to three forward passes but
3x cheaper.

The paper's loss is one process window: the nominal corner at weight
``gamma`` plus the two dose corners at weight ``eta``
(:meth:`repro.optics.ProcessWindow.from_config`).  Every SMO loss, Abbe
and Hopkins, therefore runs through one window walk: the shared loss
tail ``_WindowObjective._tail`` below the per-condition aerials, and
:func:`repro.autodiff.functional.corner_resist`, the one spelling of the
resist model, for both the tail's forward and the judged corner stack
(:meth:`ProcessWindowSMOObjective.images`).
:class:`ProcessWindowSMOObjective` is the one Abbe SMO objective (single
tile or a ``(B, N, N)`` stack, the default window or any dose x
aberration grid) and :class:`HopkinsMOObjective` its baked-source
counterpart.

Objectives consume any :class:`repro.optics.ImagingEngine`; default
engines come from the shared optics cache, and the inference-only
``images()`` rides the engines' graph-free fast path.  A loss
evaluation is two fused nodes: one
:func:`repro.autodiff.functional.incoherent_image_stack` (streamed
forward, hand-written VJP), so neither the loss nor its backward
retains a ``(B, S, N, N)`` field stack, and one
:func:`repro.autodiff.functional.resist_corner_losses` for every
corner's resist and squared error (cached sigmoids, closed-form first
and second derivatives); only the robust reduction over the ``(C,)``
corner losses is composed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from ..optics import ImagingEngine, OpticalConfig, ProcessWindow, cache
from .parametrization import mask_from_theta, source_from_theta

__all__ = [
    "robust_corner_loss",
    "robust_tile_losses",
    "AdaptiveCornerWeights",
    "adaptive_corner_update",
    "HopkinsMOObjective",
    "ProcessWindowSMOObjective",
    "SourceBasisLoss",
    "ROBUST_MODES",
]


def _check_target(target: np.ndarray, config: OpticalConfig) -> np.ndarray:
    """``target`` as float64, validated as ``(N, N)`` or ``(B, N, N)``."""
    target = np.asarray(target, dtype=np.float64)
    n = config.mask_size
    if target.ndim not in (2, 3) or target.shape[-2:] != (n, n):
        raise ValueError(
            f"target must be ({n}, {n}) or (B, {n}, {n}); got {target.shape}"
        )
    return target


def _check_theta_m(theta_m, target: ad.Tensor) -> None:
    """Reject a ``theta_M`` not shaped like the target: broadcasting a
    ``(B, N, N)`` stack against one tile (or one mask against a stack)
    would silently optimize the wrong problem."""
    if tuple(theta_m.shape) != tuple(target.shape):
        raise ValueError(
            f"theta_m must be shaped like the target {tuple(target.shape)}; "
            f"got {tuple(theta_m.shape)}"
        )


# ----------------------------------------------------------------------
# process-window robustness: corner losses + robust reductions
# ----------------------------------------------------------------------
#: Supported robust reductions across process corners.  ``"adaptive"``
#: is the weighted sum under live :class:`AdaptiveCornerWeights` — the
#: soft-minimax ascent loop the solvers step once per outer iteration.
ROBUST_MODES = ("sum", "max", "adaptive")


def _corner_loss_terms(
    aerials: Sequence[ad.Tensor],
    target: ad.Tensor,
    window: ProcessWindow,
    config: OpticalConfig,
) -> Tuple[List[ad.Tensor], np.ndarray]:
    """Per-corner squared-error scalars from per-condition aerial images.

    ``aerials[i]`` is the (differentiable) aerial image at the window's
    i-th distinct pupil condition.  One
    :func:`~repro.autodiff.functional.resist_corner_losses` node gives
    every corner's ``L_c = || Z_c - Z_t ||^2`` per tile, with the
    corner's exact post-aerial ``dose**2`` scaling and its resist
    threshold (the config's, or the corner's calibrated one).  Returns
    the list of C scalar loss tensors plus that node's ``(C, B)``
    per-tile loss matrix.
    """
    per_tile = F.resist_corner_losses(
        aerials,
        target,
        window.condition_index(),
        window.doses**2,
        window.intensity_thresholds(config),
        config.beta,
    )
    batched = per_tile.ndim == 2
    totals = F.sum(per_tile, axis=1) if batched else per_tile
    losses = [F.getitem(totals, c) for c in range(window.num_corners)]
    return losses, per_tile.data if batched else per_tile.data[:, None]


def _resolve_corner_weights(
    window: ProcessWindow, weights: Optional[np.ndarray]
) -> np.ndarray:
    if weights is None:
        return window.weights
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape != (window.num_corners,):
        raise ValueError(
            f"corner weights must be ({window.num_corners},); got {w.shape}"
        )
    return w


def robust_corner_loss(
    corner_losses: Sequence[ad.Tensor],
    window: ProcessWindow,
    robust: str = "sum",
    tau: float = 1.0,
    weights: Optional[np.ndarray] = None,
) -> ad.Tensor:
    """Reduce per-corner scalar losses to one robust objective.

    * ``"sum"`` — the weighted sum ``sum_c w_c L_c``.  With the paper's
      window (:meth:`ProcessWindow.from_config`) this *is* the classic
      ``gamma * L2 + eta * L_pvb`` loss.
    * ``"max"`` — the smooth worst case ``tau * log sum_c w_c
      exp(L_c / tau)``: a log-sum-exp upper bound on the (weighted) worst
      corner that stays differentiable.  Evaluated with the standard
      constant max-shift, which leaves value and all derivatives exact.
      Smaller ``tau`` tracks the hard max more tightly; ``tau`` is in
      loss units.
    * ``"adaptive"`` — a weighted sum under the *live* weights of an
      :class:`AdaptiveCornerWeights` ascent (passed via ``weights``):
      within one evaluation the weights are constants, so the graph is
      the ``"sum"`` graph; the minimax behavior comes from the outer
      weight updates between iterations.

    ``weights`` overrides the window's static corner weights for the
    reduction (any mode); ``None`` uses ``window.weights``.
    """
    if robust not in ROBUST_MODES:
        raise ValueError(f"unknown robust mode {robust!r}; choose {ROBUST_MODES}")
    w_arr = _resolve_corner_weights(window, weights)
    if robust in ("sum", "adaptive"):
        total: Optional[ad.Tensor] = None
        for loss, w in zip(corner_losses, w_arr):
            term = F.mul(loss, float(w))
            total = term if total is None else F.add(total, term)
        if total is None:
            raise ValueError("robust_corner_loss needs at least one corner loss")
        return total
    if tau <= 0.0:
        raise ValueError(f"tau must be positive; got {tau}")
    shift = max(float(loss.data) for loss in corner_losses)
    acc: Optional[ad.Tensor] = None
    for loss, w in zip(corner_losses, w_arr):
        term = F.mul(F.exp(F.div(F.sub(loss, shift), float(tau))), float(w))
        acc = term if acc is None else F.add(acc, term)
    if acc is None:
        raise ValueError("robust_corner_loss needs at least one corner loss")
    return F.add(F.mul(F.log(acc), float(tau)), shift)


def robust_tile_losses(
    matrix: np.ndarray,
    window: ProcessWindow,
    robust: str = "sum",
    tau: float = 1.0,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-tile robust losses ``(B,)`` from a ``(C, B)`` corner matrix."""
    if robust not in ROBUST_MODES:
        raise ValueError(f"unknown robust mode {robust!r}; choose {ROBUST_MODES}")
    w = _resolve_corner_weights(window, weights)
    if robust in ("sum", "adaptive"):
        return w @ matrix
    shift = matrix.max(axis=0)
    return tau * np.log(
        (w[:, None] * np.exp((matrix - shift) / tau)).sum(axis=0)
    ) + shift


class AdaptiveCornerWeights:
    """Soft-minimax corner reweighting by exponentiated-gradient ascent.

    ``robust="adaptive"`` closes the loop on true worst-case
    optimization: instead of a fixed weighted sum (``"sum"``) or a fixed
    log-sum-exp temperature (``"max"``), the corner weights themselves
    are a simplex variable ``lambda`` ascending the inner maximization
    of

        min_theta  max_{lambda in simplex}  sum_c lambda_c L_c(theta).

    After each outer iteration the solvers call :meth:`update` with the
    current per-corner losses, taking the mirror-ascent (EG) step

        lambda_c  <-  lambda_c * exp(rate * L_c / mean(L)) / Z

    — the multiplicative-weights update on the corner loss *shares*
    (normalizing by ``mean(L)`` makes ``rate`` scale-free).  ``lambda``
    is seeded from the window's normalized static weights, and
    :attr:`weights` rescales it by the window's total weight mass so
    adaptive losses stay magnitude-comparable with ``robust="sum"``.
    ``floor`` lower-bounds every corner's simplex share at ``floor / C``
    (one ``floor``-th of the uniform share) so no corner ever stops
    being monitored entirely (a dead corner could silently regress).
    """

    @classmethod
    def maybe(
        cls, window: ProcessWindow, robust: str, rate: float
    ) -> Optional["AdaptiveCornerWeights"]:
        """The standard consumer wiring: an ascent instance iff
        ``robust == "adaptive"``, else ``None``.  Every objective and
        baseline builds (or inherits) its adaptive weights through this
        one idiom."""
        return cls(window, rate=rate) if robust == "adaptive" else None

    def __init__(
        self, window: ProcessWindow, rate: float = 1.0, floor: float = 1e-3
    ):
        if rate <= 0.0:
            raise ValueError(f"adaptive rate must be positive; got {rate}")
        if not 0.0 <= floor < 1.0:
            raise ValueError(f"floor must be in [0, 1); got {floor}")
        base = window.weights
        self.window = window
        self.rate = float(rate)
        self.floor = float(floor)
        self.total_mass = float(base.sum())
        self.lam = base / self.total_mass
        self._apply_floor()

    def _apply_floor(self) -> None:
        if self.floor > 0.0:
            self.lam = np.maximum(self.lam, self.floor / self.lam.size)
            self.lam = self.lam / self.lam.sum()

    @property
    def weights(self) -> np.ndarray:
        """Current corner weights ``(C,)`` (simplex * total mass)."""
        return self.total_mass * self.lam

    def update(self, corner_losses: np.ndarray) -> np.ndarray:
        """One EG ascent step from per-corner losses; returns the new
        weights.  Non-finite or non-positive loss vectors leave the
        weights unchanged (nothing to ascend)."""
        losses = np.asarray(corner_losses, dtype=np.float64).reshape(-1)
        if losses.shape != self.lam.shape:
            raise ValueError(
                f"corner losses must be ({self.lam.size},); got {losses.shape}"
            )
        mean = losses.mean()
        if not np.isfinite(mean) or mean <= 0.0:
            return self.weights
        z = self.rate * losses / mean
        z -= z.max()  # constant shift cancels in the normalization
        self.lam = self.lam * np.exp(z)
        self.lam = self.lam / self.lam.sum()
        self._apply_floor()
        return self.weights


def adaptive_corner_update(
    objective, matrix: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Step an objective's adaptive corner weights (solver helper).

    Looks for ``objective.adaptive_weights`` (an
    :class:`AdaptiveCornerWeights`, present when the objective was built
    with ``robust="adaptive"``) and EG-updates it from a ``(C, B)``
    corner-loss matrix summed over tiles.  ``matrix`` defaults to the
    objective's stashed ``last_corner_losses``; solvers whose iteration
    re-evaluates the objective at *other* points after the iterate's own
    evaluation (BiSMO's unroll strategy, at the earlier inner iterates)
    must capture the matrix at the iterate and pass it explicitly, or
    the ascent would run on the wrong losses.  Returns a copy of the current weights for
    the iteration record, or ``None`` when the objective is not
    adaptive — solvers call this unconditionally once per outer
    iteration.
    """
    adaptive = getattr(objective, "adaptive_weights", None)
    if adaptive is None:
        return None
    if matrix is None:
        matrix = getattr(objective, "last_corner_losses", None)
    if matrix is not None:
        adaptive.update(np.asarray(matrix).sum(axis=1))
    return adaptive.weights.copy()


class SourceBasisLoss:
    """The SMO loss at a fixed ``theta_M`` as an FFT-free function of
    ``theta_J``, plus the mask adjoint BiSMO's exact oracles need.

    Abbe's aerial image at each pupil condition ``f`` is linear in the
    normalized source weights: ``A_f(M, c) = sum_s c_s X_f[:, s](M)``
    with the intensity basis ``X_f`` of
    :meth:`repro.optics.abbe.AbbeImaging.source_intensity_basis`.  At a
    fixed mask the bases are constants, so calling this object as
    ``loss_j(theta_j)`` evaluates the loss with no FFT: one
    :func:`~repro.autodiff.functional.basis_combine` per condition,
    then the objective's loss *tail* ``T`` (resist, corner and robust
    reductions; it stashes the objective's per-tile and per-corner
    diagnostics as ``loss()`` does).

    Parts, as :class:`repro.smo.bismo.HypergradientContext` uses them:

    * :meth:`weights` — ``jhat(theta_J)``, as a graph;
    * :meth:`aerials` — ``A_f(M, c)``;
    * :attr:`tail` — ``T``, a map from the per-condition aerials
      (shaped like the masks) to the scalar loss;
    * :meth:`mask_grad` — the ``theta_M`` gradient of ``sum_t sum_f
      <A_f(M, c_t), G_t[f]>``: one streamed mask-adjoint pass
      (:func:`~repro.autodiff.functional.incoherent_mask_adjoint`)
      chained through ``mask_from_theta``'s VJP; a whole hypergradient
      is one call.

    ``stacks``/``conj_pairs`` are the per-condition kernel stacks the
    engine images with (crops around the engine's ``pupil_centres``),
    ``masks`` the mask tensor whose graph reaches the leaf ``theta_m``.
    Each basis is ``(B, R, K, K)`` over the condition's pair
    representatives (5.5 MiB at ``default`` with 4 tiles, against 56.5
    MiB for a whole-grid ``(B, S, N, N)`` one).
    """

    def __init__(
        self,
        engine: ImagingEngine,
        config: OpticalConfig,
        theta_m: np.ndarray,
        tail: Callable[[Sequence[ad.Tensor]], ad.Tensor],
        conditions: Sequence,
    ):
        self.engine = engine
        self.config = config
        self.tail = tail
        with ad.enable_grad():
            self.theta_m = ad.Tensor(theta_m, requires_grad=True)
            self.masks = mask_from_theta(self.theta_m, config)
        pairs = engine.condition_stacks(conditions)
        self.stacks = [stack for stack, _ in pairs]
        self.conj_pairs = [cp for _, cp in pairs]
        self.centres = engine.pupil_centres
        self.bases = [
            ad.Tensor(
                engine.source_intensity_basis(self.masks.data, st.data, cp)
            )
            for st, cp in pairs
        ]

    def weights(self, theta_j: ad.Tensor) -> ad.Tensor:
        """Normalized source weights ``jhat(theta_J)`` (a graph)."""
        source = source_from_theta(theta_j, self.config)
        return self.engine.normalized_weights(source)

    def aerials(self, c: ad.Tensor) -> List[ad.Tensor]:
        """``A_f(M, c)`` for every condition, shaped like the masks."""
        shape = self.masks.shape
        n = self.config.mask_size
        out = [
            F.basis_combine(x, c, cp, n)
            for x, cp in zip(self.bases, self.conj_pairs)
        ]
        return [a if a.shape == shape else F.reshape(a, shape) for a in out]

    def __call__(self, theta_j: ad.Tensor) -> ad.Tensor:
        return self.tail(self.aerials(self.weights(theta_j)))

    def mask_grad(
        self, terms: Sequence[Tuple[np.ndarray, Sequence[np.ndarray]]]
    ) -> np.ndarray:
        """``d/dtheta_M  sum_t sum_f <A_f(M, c_t), G_t[f]>`` for terms
        ``(c_t, [G_t[f] per condition])``, in one mask-adjoint pass.

        The gradient is linear in each ``c_t``, so a weighted sum of such
        gradients is one call with scaled weights: BiSMO's hypergradient
        ``grad_m - c * mixed_vjp(w)`` is the two terms
        ``(jhat - c delta, G)`` and ``(-c jhat, G')``
        (:meth:`repro.smo.bismo.HypergradientContext.mixed_vjp`).
        """
        gm = F.incoherent_mask_adjoint(
            self.masks.data,
            self.stacks,
            [(c, np.stack(g)) for c, g in terms],
            conj_pairs=self.conj_pairs,
            centres=self.centres,
        )
        (g,) = ad.grad(self.masks, [self.theta_m], grad_output=ad.Tensor(gm))
        return g.data


class _WindowObjective:
    """What both SMO objectives share below their engines: the target, a
    process window under one robust reduction (``robust``, ``tau``),
    optional live adaptive corner weights, the one loss tail below the
    aerial images (:meth:`_tail`), and the stash of every evaluation's
    diagnostics that solvers read.

    ``adaptive_weights`` lets a solver like AM-SMO or MILT share one
    live :class:`AdaptiveCornerWeights` across objectives; otherwise
    ``robust="adaptive"`` creates its own (``tau`` is its EG rate).
    """

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        window: Optional[ProcessWindow],
        robust: str,
        tau: float,
        adaptive_weights: Optional[AdaptiveCornerWeights] = None,
    ):
        if robust not in ROBUST_MODES:
            raise ValueError(
                f"unknown robust mode {robust!r}; choose {ROBUST_MODES}"
            )
        if adaptive_weights is not None and robust != "adaptive":
            raise ValueError(
                "adaptive_weights requires robust='adaptive' (a live "
                "ascent would silently override the static corner "
                f"weights under robust={robust!r})"
            )
        target = _check_target(target, config)
        self.config = config
        self.window = window or ProcessWindow.from_config(config)
        self.robust = robust
        self.tau = float(tau)
        self._batched = target.ndim == 3
        self.num_tiles = target.shape[0] if self._batched else 1
        self.target = ad.Tensor(target)
        #: ``(C, B)`` per-corner / per-tile loss matrix of the latest
        #: evaluation (C follows ``window.corners`` order).
        self.last_corner_losses: Optional[np.ndarray] = None
        #: Per-tile robust loss vector of the latest evaluation (batched
        #: only).
        self.last_tile_losses: Optional[np.ndarray] = None
        #: Live minimax corner weights (``robust="adaptive"`` only).
        self.adaptive_weights = (
            adaptive_weights
            if adaptive_weights is not None
            else AdaptiveCornerWeights.maybe(self.window, robust, self.tau)
        )

    def _robust_weights(self) -> Optional[np.ndarray]:
        """Current corner-weight override (live adaptive weights)."""
        adaptive = self.adaptive_weights
        return None if adaptive is None else adaptive.weights

    def _stash(self, matrix: np.ndarray) -> None:
        """Keep an evaluation's corner matrix and per-tile losses."""
        self.last_corner_losses = matrix
        self.last_tile_losses = (
            robust_tile_losses(
                matrix, self.window, self.robust, self.tau,
                weights=self._robust_weights(),
            )
            if self._batched
            else None
        )

    def _tail(self, aerials: Sequence[ad.Tensor]) -> ad.Tensor:
        """The loss below the per-condition aerial images: one
        :func:`~repro.autodiff.functional.resist_corner_losses` node for
        every corner's resist and squared error, then the robust
        reduction under the live corner weights.  Stashes the corner
        matrix and per-tile losses."""
        losses, matrix = _corner_loss_terms(
            aerials, self.target, self.window, self.config
        )
        total = robust_corner_loss(
            losses, self.window, self.robust, self.tau, self._robust_weights()
        )
        self._stash(matrix)
        return total

    def _window_loss(
        self, mask: ad.Tensor, source: Optional[ad.Tensor] = None
    ) -> ad.Tensor:
        """The robust window loss of ``mask``: one fused
        ``engine.aerial_conditions`` stack over the window's distinct
        pupil conditions (``source=None`` for baked-source engines), then
        :meth:`_tail`."""
        conditions = self.window.conditions()
        stack = self.engine.aerial_conditions(mask, source, conditions)
        return self._tail([F.getitem(stack, fi) for fi in range(len(conditions))])


class ProcessWindowSMOObjective(_WindowObjective):
    """The SMO loss ``L_smo(theta_J, theta_M)`` — the one Abbe objective.

    This single callable backs SO, MO and every BiSMO level (the paper
    uses the same objective at both levels, Eq. (9)); which parameter a
    solver differentiates decides the role.  It is a robust loss across
    a dose x aberration :class:`ProcessWindow`, and the paper's loss is
    its default window (:meth:`ProcessWindow.from_config`): the nominal
    corner at weight ``gamma`` plus the +/-2 % dose corners at weight
    ``eta``, so ``robust="sum"`` gives ``gamma * L2 + eta * L_pvb``.

    One evaluation images every distinct pupil condition of the window —
    defocus and general Zernike aberrations alike — through the engine's
    fused ``aerial_conditions`` stack (a single mask-spectrum FFT shared
    by all conditions), applies each corner's exact ``dose**2`` scaling
    (and calibrated resist threshold, when set) in the resist model, and
    reduces the per-corner losses with :func:`robust_corner_loss`.
    ``robust="adaptive"`` attaches an :class:`AdaptiveCornerWeights`
    ascent (``tau`` becomes the EG rate) that solvers step once per
    outer iteration via :func:`adaptive_corner_update`.

    ``target`` is a single ``(N, N)`` tile or a ``(B, N, N)`` stack
    (joint multi-clip SMO: one shared source, the loss summed over
    tiles); ``theta_M`` must have the target's shape.  Every evaluation
    stashes the ``(C, B)`` corner matrix on ``last_corner_losses`` and,
    for a stack, the per-tile losses on ``last_tile_losses``, at no
    extra imaging cost.  ``loss`` is differentiable in both parameters;
    its second derivatives come from ``source_only_loss``, the FFT-free
    per-condition intensity bases that BiSMO's inner steps and exact
    second-order oracles work from (the imaging primitive's VJP is
    graph-free, and the resist tail differentiates twice).
    """

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        window: Optional[ProcessWindow] = None,
        engine: Optional[ImagingEngine] = None,
        robust: str = "sum",
        tau: float = 1.0,
    ):
        super().__init__(config, target, window, robust, tau)
        self.engine = engine or cache.abbe_engine(config)
        if not hasattr(self.engine, "source_weights"):
            raise ValueError(
                "ProcessWindowSMOObjective needs a source-differentiable "
                "engine (the loss is a function of theta_J); for "
                "baked-source Hopkins engines use "
                "HopkinsMOObjective instead"
            )

    # ------------------------------------------------------------------
    def loss(self, theta_j: ad.Tensor, theta_m: ad.Tensor) -> ad.Tensor:
        """L_smo across the window (one fused condition stack)."""
        _check_theta_m(theta_m, self.target)
        source = source_from_theta(theta_j, self.config)
        return self._window_loss(mask_from_theta(theta_m, self.config), source)

    # ------------------------------------------------------------------
    def corner_loss_matrix(
        self, theta_j: np.ndarray, theta_m: np.ndarray
    ) -> np.ndarray:
        """``(C, B)`` per-corner / per-tile losses via the fast path.

        Derived from the :meth:`images` resist stack so the per-corner
        loss definition lives in one place.
        """
        resists = self.images(theta_j, theta_m)["corner_resists"]
        sq = (resists - self.target.data) ** 2
        return sq.sum(axis=(-2, -1)).reshape(self.window.num_corners, -1)

    def source_only_loss(self, theta_m: np.ndarray) -> SourceBasisLoss:
        """The robust loss at fixed ``theta_M`` as an FFT-free function of
        ``theta_J``: a :class:`SourceBasisLoss` with one intensity basis
        per distinct pupil condition of the window (Abbe's aerial is
        linear in the normalized source weights at every condition).

        Call it as ``loss_j(theta_j)`` for the cheap inner-SO and
        inner-Hessian oracle; BiSMO's exact hypergradient oracles also
        take their mask adjoint from it.  Adaptive corner weights are
        read at *call* time, so the object tracks the minimax ascent.
        """
        _check_theta_m(theta_m, self.target)
        return SourceBasisLoss(
            self.engine, self.config, theta_m, self._tail,
            self.window.conditions(),
        )

    def images(
        self, theta_j: np.ndarray, theta_m: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """The window's images of ``(theta_J, theta_M)``, graph-free.

        Keys: the ``source`` and ``mask``, the ``target``,
        ``corner_aerials``, the ``(F, [B,] N, N)`` aerial stack over the
        window's distinct pupil conditions, and ``corner_resists``, the
        ``(C, [B,] N, N)`` resist stack in ``window.corners`` order (each
        corner's dose and resist threshold).  For the default window the
        corners are the nominal, dose- and dose+ images the paper's
        metrics read (Eqs. (7)-(8)).
        """
        with ad.no_grad():
            source = source_from_theta(ad.Tensor(theta_j), self.config).data
            mask = mask_from_theta(ad.Tensor(theta_m), self.config).data
        stack = self.engine.aerial_conditions_fast(
            mask, source, self.window.conditions()
        )
        scales = self.window.doses**2
        thresholds = self.window.intensity_thresholds(self.config)
        resists = [
            F.corner_resist(stack[f], scales[c], thresholds[c], self.config.beta)
            for c, f in enumerate(self.window.condition_index())
        ]
        return {
            "source": source,
            "mask": mask,
            "target": self.target.data,
            "corner_aerials": stack,
            "corner_resists": np.stack(resists),
        }


class HopkinsMOObjective(_WindowObjective):
    """Hopkins/SOCS mask-only objective (for MO baselines & hybrid AM-SMO).

    The source is frozen into the TCC at construction;
    :meth:`rebuild_source` re-assembles the TCC after an SO phase — the
    expensive, non-differentiable step that motivates the paper's
    Abbe-only framework.  Engines resolve through the shared optics
    cache, so a repeated (config, source, Q) triple decomposes once.

    ``target`` may be a single ``(N, N)`` tile or a ``(B, N, N)`` stack;
    a stack makes the objective joint over the batch (``theta_m`` must
    have the target's shape and the loss is the sum over tiles, riding
    the engine's fused multi-tile forward).

    The loss is the robust dose x aberration reduction of
    :func:`robust_corner_loss` across ``window``, by default the paper's
    Eq. (8) window (:meth:`ProcessWindow.from_config`): aberration
    corners ride the engine's fused ``aerial_conditions`` stack (the
    aberrated SOCS kernels are exact phase multiplies of the nominal
    decomposition — the arbitrary-D identity, no TCC rebuild), dose
    corners share each condition pass.  ``robust`` / ``robust_tau`` pick
    weighted-sum, smooth worst-case, or the adaptive minimax ascent
    (``adaptive_weights`` lets a driver like AM-SMO share one live
    :class:`AdaptiveCornerWeights` across phases / rebuilds; otherwise
    ``robust="adaptive"`` creates its own).
    """

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        source: np.ndarray,
        num_kernels: Optional[int] = None,
        engine: Optional[ImagingEngine] = None,
        window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
        adaptive_weights: Optional[AdaptiveCornerWeights] = None,
    ):
        super().__init__(
            config, target, window, robust, robust_tau, adaptive_weights
        )
        self._num_kernels = num_kernels
        self.engine = engine or self._build_engine(source)

    def _build_engine(self, source: np.ndarray) -> ImagingEngine:
        return cache.hopkins_engine(self.config, source, self._num_kernels)

    def rebuild_source(self, source: np.ndarray) -> None:
        """Re-derive TCC + SOCS kernels for a new source (slow path)."""
        self.engine = self._build_engine(source)

    def loss(self, theta_m: ad.Tensor) -> ad.Tensor:
        """The window loss of ``theta_m`` (one fused condition stack)."""
        _check_theta_m(theta_m, self.target)
        return self._window_loss(mask_from_theta(theta_m, self.config))
