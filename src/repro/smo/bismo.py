"""BiSMO — bilevel SMO (Section 3.2, Algorithm 2).

SMO is posed as the bilevel program (Eq. (11))

    min_{theta_M}  L_mo(theta_J*(theta_M), theta_M)
    s.t.  theta_J*(theta_M) = argmin_{theta_J} L_so(theta_J, theta_M)

The outer (MO) gradient is the *hypergradient* (Eq. (12)): the direct
term plus the best-response term through theta_J*.  Four strategies are
implemented, keyed ``"fd"`` / ``"nmn"`` / ``"cg"`` / ``"unroll"``: three
approximations of the inverse inner Hessian — finite-difference
(:mod:`repro.smo.fd`), truncated Neumann series (:mod:`repro.smo.nmn`)
and conjugate gradient (:mod:`repro.smo.cg`) — and the reverse-mode
reference that differentiates through the inner steps
(:mod:`repro.smo.unroll`).  Each outer iteration

1. unrolls ``T`` inner SO steps to track theta_J* (Alg. 2 line 2),
2. builds a :class:`HypergradientContext` — the loss, the direct
   gradients and exact HVP / mixed-product oracles.  theta_M is fixed
   for the whole outer iteration, so the FFT-free intensity basis the
   inner SO loop already uses (:class:`SourceBasisLoss`) carries them:
   the graph is cut at the aerial image, HVPs are double backwards
   over the basis and the loss tail, and the mask side is one streamed
   mask-adjoint pass — no ``create_graph`` backward through imaging,
3. forms the hypergradient in that one pass: ``grad_m - c *
   mixed_vjp(w)`` (c = xi for FD, 1 for NMN and CG) is
   ``mixed_vjp(w, direct=c)``, which folds the direct term into the
   mixed product's terms, and the unroll strategy folds one such pair
   of terms per inner step into the same call.  Then it updates
   theta_M (Alg. 2 line 13).

Since the paper sets ``L_so := L_mo := L_smo`` (Eq. (9)), one loss graph
serves both levels.

Joint multi-clip SMO: passing a ``(B, N, N)`` target stack optimizes
one shared ``theta_J`` against a ``(B, N, N)`` ``theta_M`` stack;
hypergradients and HVPs flow through the fused batched forward and
every :class:`IterationRecord` carries the per-tile loss vector.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import functional as F
from ..opt import Optimizer, make_optimizer
from ..optics import OpticalConfig, ProcessWindow
from .mo_only import Callback, SolverLoop
from .objective import (
    ProcessWindowSMOObjective,
    SourceBasisLoss,
    adaptive_corner_update,
)
from .parametrization import init_theta_mask, init_theta_source
from .state import SMOResult

__all__ = ["HypergradientContext", "BiSMO"]


class HypergradientContext:
    """First-order state at (theta_J, theta_M) plus second-order oracles.

    Exposes:

    * ``loss_value``, ``grad_j`` / ``grad_m`` — the loss and its direct
      gradients (numpy copies),
    * :meth:`hvp` — exact inner Hessian-vector products
      ``(d^2 L_so / d theta_J^2) @ p``,
    * :meth:`mixed_vjp` — exact mixed products
      ``(d^2 L_so / d theta_M d theta_J) @ w`` (shape of theta_M), or
      with ``direct=c`` the hypergradient ``grad_m - c * mixed_vjp(w)``,
    * :meth:`at` — the context at another theta_J on the same basis.

    The oracles feed every hypergradient strategy: finite-difference
    (:mod:`repro.smo.fd`), truncated Neumann series (:mod:`repro.smo.nmn`),
    conjugate gradient (:mod:`repro.smo.cg`) and the unrolled reverse
    sweep (:mod:`repro.smo.unroll`).

    ``basis`` is the objective's :class:`SourceBasisLoss` at the fixed
    theta_M (``objective.source_only_loss(theta_m)``), and the context
    cuts the graph at the aerial image.  With ``A(M, c) = sum_s c_s
    X_s(M)`` linear in the normalized source weights ``jhat``, ``T`` the
    loss tail below ``A`` and ``G = dT/dA``:

    * the loss, ``grad_j`` and every HVP come from the basis, with no
      FFT (a double backward over ``theta_J -> jhat -> A -> T``);
    * ``grad_m`` is one streamed mask-adjoint pass with the term
      ``(jhat, G)``, run on first read only;
    * ``mixed_vjp(w) = grad_M <A(M, delta), G> + grad_M <A(M, jhat), G'>``
      with ``delta = J_jhat w`` and ``G' = (d^2 T / dA^2) A(M, delta)``
      (a double backward over the tail only): one mask-adjoint pass
      with the two terms of :meth:`mixed_terms`;
    * ``mixed_vjp(w, direct=c)``: the adjoint is linear in each term's
      weights, so ``grad_m - c * mixed_vjp(w)`` is one pass with the
      terms ``(jhat - c delta, G)`` and ``(-c jhat, G')``, and
      ``grad_m`` itself never runs.

    This is exact for any tail (sum, log-sum-exp max and adaptive
    corner weights alike), because ``A`` is linear in ``jhat`` and ``T``
    sees only ``A``.
    """

    def __init__(self, basis: SourceBasisLoss, theta_j: np.ndarray):
        self.basis = basis
        tj = ad.Tensor(theta_j, requires_grad=True)
        jn = basis.weights(tj)
        self._a = basis.aerials(jn)
        loss = basis.tail(self._a)
        self.loss_value = float(loss.data)
        # One backward over theta_J -> jhat -> A -> T, FFT-free: grad_j
        # with its graph for the HVPs, and G = dT/dA with its graph for
        # G' = (d^2 T / dA^2) A(M, delta) in mixed_vjp, whose second
        # backward stops at the aerials.
        gj, *self._g = ad.grad(loss, [tj, *self._a], create_graph=True)
        self._tj, self._gj = tj, gj
        self.grad_j = gj.data.copy()
        # J_jhat^T u for a free leaf u: differentiating <J^T u, w> in u
        # gives the forward product J_jhat w from two reverse passes.
        self._u = ad.Tensor(np.zeros(jn.shape), requires_grad=True)
        (self._jt_u,) = ad.grad(
            jn, [tj], grad_output=self._u, create_graph=True
        )
        self._jn = jn.data
        # The hypergradient folds grad_m in unread.
        self._grad_m: Optional[np.ndarray] = None

    def at(self, theta_j: np.ndarray) -> "HypergradientContext":
        """The context at another ``theta_J`` and the same ``theta_M``,
        on the same intensity basis (no re-imaging)."""
        return HypergradientContext(self.basis, theta_j)

    @property
    def grad_m(self) -> np.ndarray:
        """The direct gradient ``dL / d theta_M``: one mask-adjoint pass
        on first read."""
        if self._grad_m is None:
            self._grad_m = self.basis.mask_grad([self.grad_m_term])
        return self._grad_m

    @property
    def grad_m_term(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """``grad_m`` as a :meth:`SourceBasisLoss.mask_grad` term,
        ``(jhat, G)``."""
        return self._jn, [g.data for g in self._g]

    # -- second-order oracles -------------------------------------------
    def hvp(self, p: np.ndarray) -> np.ndarray:
        """(d^2 L_so / d theta_J^2) @ p."""
        (h,) = ad.grad(
            F.dot(self._gj, ad.Tensor(p)), [self._tj], allow_unused=True
        )
        return np.zeros_like(p) if h is None else h.data

    def mixed_vjp(
        self, w: np.ndarray, direct: Optional[float] = None
    ) -> np.ndarray:
        """(d^2 L_so / d theta_M d theta_J) @ w — gradient-fusion term.

        With ``direct=c`` it returns the hypergradient ``grad_m - c *
        mixed_vjp(w)``, still in one mask-adjoint pass.
        """
        (delta, grads), (jn, g_prime) = self.mixed_terms(w)
        if direct is None:
            terms = [(delta, grads), (jn, g_prime)]
        else:  # the adjoint is linear in each term's weights
            terms = [(jn - direct * delta, grads), (-direct * jn, g_prime)]
        return self.basis.mask_grad(terms)

    def mixed_terms(
        self, w: np.ndarray
    ) -> List[Tuple[np.ndarray, List[np.ndarray]]]:
        """``mixed_vjp(w)`` as its two :meth:`SourceBasisLoss.mask_grad`
        terms, ``(delta, G)`` and ``(jhat, G')``, before any pass runs:
        ``grad_M <A(M, delta), G> + grad_M <A(M, jhat), G'>``."""
        (delta,) = ad.grad(F.dot(self._jt_u, ad.Tensor(w)), [self._u])
        inner: Optional[ad.Tensor] = None
        for g, a_delta in zip(self._g, self.basis.aerials(delta)):  # FFT-free
            term = F.dot(g, a_delta)
            inner = term if inner is None else F.add(inner, term)
        g2 = ad.grad(inner, self._a, allow_unused=True)
        g_prime = [
            np.zeros_like(a.data) if g is None else g.data
            for g, a in zip(g2, self._a)
        ]
        return [(delta.data, [g.data for g in self._g]), (self._jn, g_prime)]


#: ``(ctx, inner_lr, terms, damping, warm, iterates) -> (hyper, warm)``;
#: ``iterates`` are the inner iterates theta_J^0 .. theta_J^{T-1} before
#: ``ctx``'s theta_J^T (only the unroll strategy reads them).
HypergradientFn = Callable[
    [
        HypergradientContext,
        float,
        int,
        float,
        Optional[np.ndarray],
        Sequence[np.ndarray],
    ],
    Tuple[np.ndarray, Optional[np.ndarray]],
]


def _resolve_method(method: str) -> HypergradientFn:
    from .cg import cg_hypergradient
    from .fd import fd_hypergradient
    from .nmn import neumann_hypergradient
    from .unroll import unrolled_hypergradient

    table = {
        "fd": fd_hypergradient,
        "nmn": neumann_hypergradient,
        "cg": cg_hypergradient,
        "unroll": unrolled_hypergradient,
    }
    key = method.lower()
    if key not in table:
        raise KeyError(
            f"unknown BiSMO method {method!r}; choose from {sorted(table)}"
        )
    return table[key]


class BiSMO:
    """Bilevel SMO driver (Algorithm 2).

    Parameters
    ----------
    target:
        Binary target image ``(N, N)``, or a ``(B, N, N)`` stack for
        joint multi-clip SMO (one shared source, a ``theta_M`` stack).
    method:
        ``"fd"`` (Eq. (13)), ``"nmn"`` (truncated Neumann, Eq. (16)),
        ``"cg"`` (Eq. (18)) or ``"unroll"`` (reverse-mode reference,
        Section 3.2.1).
    unroll_steps:
        Inner SO steps ``T`` per outer iteration (paper: 3).
    terms:
        Neumann terms / CG iterations ``K`` (paper: 5).
    inner_lr / outer_lr:
        Step sizes ``xi_J`` and ``xi_M`` (paper: 0.1 each).
    inner_optimizer / outer_optimizer:
        ``"sgd"`` or ``"adam"`` ("// Or Adam" in Alg. 2).  The
        ``"unroll"`` method differentiates through plain SGD inner
        updates, so it accepts ``inner_optimizer="sgd"`` only.
    damping:
        Tikhonov damping added to the inner Hessian in the CG solve.
    process_window:
        The :class:`repro.optics.ProcessWindow` both bilevel levels
        optimize across (:class:`ProcessWindowSMOObjective`; one fused
        condition stack per evaluation, hypergradients and HVPs flow
        through the condition axis).  ``None`` is the paper's Eq. (8)
        window, :meth:`~repro.optics.ProcessWindow.from_config`.
        ``robust`` / ``robust_tau`` select the corner reduction —
        weighted sum, smooth worst case, or ``"adaptive"``: an outer
        exponentiated-gradient ascent on the corner weights (one step
        per outer iteration, trajectory in the records) that closes the
        loop on true worst-case SMO.
    objective:
        A pre-built objective; overrides the one built from ``target``,
        ``process_window`` and ``robust``.  It must expose
        ``source_only_loss(theta_m)`` returning a :class:`SourceBasisLoss`
        (every :class:`HypergradientContext` runs on it).
    """

    def __init__(
        self,
        config: OpticalConfig,
        target: np.ndarray,
        method: str = "nmn",
        unroll_steps: int = 3,
        terms: int = 5,
        inner_lr: float = 0.1,
        outer_lr: float = 0.1,
        inner_optimizer: str = "sgd",
        outer_optimizer: str = "adam",
        damping: float = 0.0,
        objective: Optional[ProcessWindowSMOObjective] = None,
        process_window: Optional[ProcessWindow] = None,
        robust: str = "sum",
        robust_tau: float = 1.0,
        seed: int = 0,
    ):
        self.config = config
        self.target = np.asarray(target, dtype=np.float64)
        self.objective = objective or ProcessWindowSMOObjective(
            config, self.target, process_window, robust=robust, tau=robust_tau
        )
        if not hasattr(self.objective, "source_only_loss"):
            kind = type(self.objective).__name__
            raise TypeError(
                "BiSMO needs an objective with source_only_loss(theta_m) "
                "returning a SourceBasisLoss, the intensity basis its "
                f"hypergradient oracles run on; {kind} has none.  The "
                "composed create_graph reference context is "
                "ComposedHypergradientContext in tests/oracles.py"
            )
        self.method = method.lower()
        self.seed = int(seed)
        self._hyper_fn = _resolve_method(method)
        if self.method == "nmn":
            # nmn's safeguard draws a power-iteration start vector; key
            # it on the solver's seed (routed via repro.utils.seed).
            self._hyper_fn = partial(self._hyper_fn, seed=self.seed)
        if self.method == "unroll" and inner_optimizer.lower() != "sgd":
            raise ValueError(
                "BiSMO-UNROLL differentiates through plain SGD inner "
                f"updates; inner_optimizer={inner_optimizer!r} is not "
                "supported on the unroll path (use 'sgd' or an IFT method)"
            )
        self.unroll_steps = unroll_steps
        self.terms = terms
        self.inner_lr = inner_lr
        self.outer_lr = outer_lr
        self.inner_optimizer = inner_optimizer
        self.outer_optimizer = outer_optimizer
        self.damping = damping
        self.method_name = f"BiSMO-{self.method.upper()}"

    def run(
        self,
        source_template: np.ndarray,
        iterations: int = 40,
        theta_m0: Optional[np.ndarray] = None,
        theta_j0: Optional[np.ndarray] = None,
        callback: Optional[Callback] = None,
    ) -> SMOResult:
        cfg = self.config
        theta_m = (
            init_theta_mask(self.target, cfg)
            if theta_m0 is None
            else np.array(theta_m0, dtype=np.float64, copy=True)
        )
        theta_j = (
            init_theta_source(source_template, cfg)
            if theta_j0 is None
            else np.array(theta_j0, dtype=np.float64, copy=True)
        )
        inner_opt = make_optimizer(self.inner_optimizer, self.inner_lr)
        outer_opt = make_optimizer(self.outer_optimizer, self.outer_lr)
        body = partial(self._iteration, inner_opt, outer_opt)
        loop = SolverLoop(self.method_name, callback)
        theta_m, theta_j, _ = loop.run(
            iterations, "bilevel", body, (theta_m, theta_j, None)
        )
        return loop.result(theta_m, theta_j)

    def _iteration(self, inner_opt: Optimizer, outer_opt: Optimizer, state):
        """One outer iteration: T inner steps, then the strategy's
        hypergradient and the outer step."""
        theta_m, theta_j, warm = state
        # ---- Alg. 2 line 2: unroll T inner SO steps -------------------
        # theta_M is fixed for the whole outer iteration, so the
        # objective's FFT-free source-only loss (one intensity basis,
        # shared with the hypergradient oracles below) carries every
        # inner step and second-order product of this iteration.
        so_loss = self.objective.source_only_loss(theta_m)
        iterates = []
        for _ in range(self.unroll_steps):
            iterates.append(theta_j)
            tj = ad.Tensor(theta_j, requires_grad=True)
            (gj,) = ad.grad(so_loss(tj), [tj])
            theta_j = inner_opt.step(theta_j, gj.data)
        # ---- Alg. 2 lines 5-12: hypergradient -------------------------
        ctx = HypergradientContext(so_loss, theta_j)
        # Capture per-tile losses and the corner matrix now: they belong
        # to ctx's loss evaluation at theta_J^T, and the unroll strategy
        # re-evaluates the tail at the earlier iterates below (clobbering
        # the stashed diagnostics).
        tile_losses = getattr(self.objective, "last_tile_losses", None)
        corner_matrix = getattr(self.objective, "last_corner_losses", None)
        hyper, warm = self._hyper_fn(
            ctx, self.inner_lr, self.terms, self.damping, warm, iterates
        )
        # ---- Alg. 2 line 13: outer MO step ----------------------------
        theta_m = outer_opt.step(theta_m, hyper)
        # Minimax ascent on the corner weights (robust="adaptive"): one
        # EG step per outer iteration, from the corner losses of ctx's
        # evaluation at the pre-step parameters.
        corner_w = adaptive_corner_update(self.objective, corner_matrix)
        return (theta_m, theta_j, warm), ctx.loss_value, hyper, tile_losses, corner_w
