"""Optical / numerical configuration for the lithography models.

The paper's settings (Section 4): wavelength 193 nm, NA 1.35, annular
source with sigma_out 0.95 / sigma_in 0.63, source grid N_j = 35, mask
grid N_m = 2048 over a 4 um^2 tile, SOCS truncation Q = 24, sigmoid
steepnesses alpha_m = 9, alpha_j = 2, beta = 30, initial magnitudes
m0 = 1, j0 = 5, loss weights gamma = 1000, eta = 3000, dose +/-2 %.

The paper ran those sizes on an RTX 4090.  This reproduction runs on one
CPU core, so :func:`OpticalConfig.preset` offers scaled-down grids with
the *same physics* (identical tile size, wavelength, NA, source shape);
the paper-scale preset remains available.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # import cycle: zernike imports OpticalConfig
    from .zernike import PupilAberration

__all__ = ["OpticalConfig", "ProcessCorner", "ProcessWindow"]


@dataclass(frozen=True)
class OpticalConfig:
    """All knobs of the forward model and SMO losses in one place."""

    # --- optics -------------------------------------------------------
    wavelength_nm: float = 193.0
    na: float = 1.35
    # --- grids --------------------------------------------------------
    mask_size: int = 128           # N_m (paper: 2048)
    tile_nm: float = 2000.0        # 2 um side -> 4 um^2 tile as in Table 2
    source_size: int = 13          # N_j (paper: 35)
    # --- source template ---------------------------------------------
    sigma_out: float = 0.95
    sigma_in: float = 0.63
    # --- parametrization (Table 1) -------------------------------------
    alpha_m: float = 9.0
    alpha_j: float = 2.0
    m0: float = 1.0
    j0: float = 5.0
    # --- resist (Eq. (6)) ----------------------------------------------
    beta: float = 30.0
    intensity_threshold: float = 0.225
    # --- process window (Eq. (8)) --------------------------------------
    dose_min: float = 0.98
    dose_max: float = 1.02
    # --- loss weights (Eq. (9)) -----------------------------------------
    gamma: float = 1000.0
    eta: float = 3000.0
    # --- Hopkins / SOCS -------------------------------------------------
    socs_terms: int = 24           # Q

    def __post_init__(self) -> None:
        if self.mask_size <= 0 or self.source_size <= 0:
            raise ValueError("grid sizes must be positive")
        if not 0 < self.sigma_in < self.sigma_out <= 1.0:
            raise ValueError("need 0 < sigma_in < sigma_out <= 1")
        if self.dose_min > 1.0 or self.dose_max < 1.0:
            raise ValueError("dose range must bracket the nominal dose 1.0")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def pixel_nm(self) -> float:
        """Mask pixel pitch in nanometres."""
        return self.tile_nm / self.mask_size

    @property
    def cutoff_freq(self) -> float:
        """Pupil cutoff NA / lambda in 1/nm (Eq. (5))."""
        return self.na / self.wavelength_nm

    @property
    def pixel_area_nm2(self) -> float:
        return self.pixel_nm**2

    def freq_axes(self) -> Tuple[np.ndarray, np.ndarray]:
        """FFT frequency axes (1/nm) for the mask grid (fftfreq order).

        Memoized through :mod:`repro.optics.cache` (the axes are hit on
        every pupil build, TCC assembly and geometry rasterization); the
        returned arrays are shared and read-only.
        """
        from .cache import freq_axes

        return freq_axes(self)

    def freq_grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Meshed (fx, fy) frequency grids, shape (N_m, N_m).

        Memoized through :mod:`repro.optics.cache`; shared read-only arrays.
        """
        from .cache import freq_grid

        return freq_grid(self)

    def source_sigma_axes(self) -> np.ndarray:
        """Normalized source coordinates sigma in [-1, 1] (length N_j)."""
        return np.linspace(-1.0, 1.0, self.source_size)

    def validate_sampling(self) -> None:
        """Raise if the mask grid cannot represent the optical band.

        The aerial image is bandlimited to 2 * NA/lambda; the grid Nyquist
        frequency 1/(2*pixel) must exceed that (with a small safety
        factor for the shifted pupils).
        """
        nyquist = 1.0 / (2.0 * self.pixel_nm)
        if nyquist < 2.0 * self.cutoff_freq:
            raise ValueError(
                f"mask grid too coarse: Nyquist {nyquist:.2e} < 2*NA/lambda "
                f"{2 * self.cutoff_freq:.2e}; increase mask_size"
            )

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    #: The named configurations of :meth:`preset`, as field values.
    PRESETS: ClassVar[Dict[str, Dict[str, Any]]] = {
        "paper": {"mask_size": 2048, "source_size": 35},
        "default": {"mask_size": 128, "source_size": 13},
        "small": {"mask_size": 64, "source_size": 9},
        "tiny": {"mask_size": 32, "source_size": 7, "tile_nm": 500.0},
    }

    @classmethod
    def preset(cls, name: str = "default") -> "OpticalConfig":
        """Named configurations.

        * ``"paper"`` — the full DAC'24 settings (2048 px, N_j=35); very
          slow on CPU, provided for completeness.
        * ``"default"`` — 128 px / N_j=13; the reproduction scale used by
          the benchmark harness.
        * ``"small"`` — 64 px / N_j=9 for integration tests and examples.
        * ``"tiny"`` — 32 px / N_j=7, 500 nm tile, for unit tests.
        """
        if name not in cls.PRESETS:
            raise KeyError(f"unknown preset {name!r}; choose from {sorted(cls.PRESETS)}")
        return cls(**cls.PRESETS[name])

    def with_(self, **kwargs: Any) -> "OpticalConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)

    def process_window(self) -> "ProcessWindow":
        """The paper's dose-only window (Eq. (8)) for this configuration."""
        return ProcessWindow.from_config(self)


# ----------------------------------------------------------------------
# process windows — the dose x focus condition axis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessCorner:
    """One process condition: (dose, pupil aberration) with a loss weight.

    ``dose`` multiplies the mask transmission (the paper's +/-2 %
    corners); because aerial intensity is quadratic in the mask, its
    effect is an exact ``dose**2`` scaling of the aerial image applied
    *post-imaging* in the resist model — corners that share an
    aberration therefore share the entire imaging pass.

    ``aberrations`` is the pupil-phase condition: anything
    :meth:`repro.optics.zernike.PupilAberration.coerce` accepts (a
    ``{term: nm}`` mapping over Zernike terms Z4-Z11, a raw radian
    phase map, or a spec object).  ``defocus_nm`` is backward-compatible
    sugar for the Z4 (wafer defocus) term: at construction it is folded
    into the canonical spec, so ``ProcessCorner(defocus_nm=f)`` and
    ``ProcessCorner(aberrations={"Z4": f})`` are *equal* corners
    compiling to one shared, bitwise-identical pupil stack.  Each
    distinct aberration spec costs one imaging pass.

    ``weight`` is the corner's absolute loss weight (the paper's gamma /
    eta are the dose-corner weights); under ``robust="adaptive"`` the
    weights seed the minimax ascent.  ``intensity_threshold`` optionally
    overrides the config's resist threshold for this corner (per-corner
    resist calibration — real process models calibrate ``I_tr`` per
    condition); ``None`` keeps the shared config value.
    """

    dose: float = 1.0
    defocus_nm: float = 0.0
    weight: float = 1.0
    label: str = ""
    aberrations: Any = None
    intensity_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        from .zernike import PupilAberration

        if self.dose <= 0.0:
            raise ValueError(f"corner dose must be positive; got {self.dose}")
        if self.weight <= 0.0:
            raise ValueError(f"corner weight must be positive; got {self.weight}")
        if self.intensity_threshold is not None:
            thr = float(self.intensity_threshold)
            if thr <= 0.0:
                raise ValueError(
                    f"corner intensity_threshold must be positive; got {thr}"
                )
            object.__setattr__(self, "intensity_threshold", thr)
        # Canonicalize: fold the defocus sugar into the aberration spec,
        # then mirror the spec's Z4 component back so both spellings are
        # equal dataclasses with one cache identity.
        ab = PupilAberration.coerce(self.aberrations)
        if float(self.defocus_nm) != 0.0:
            ab = ab.add_defocus(float(self.defocus_nm))
        object.__setattr__(self, "aberrations", ab)
        object.__setattr__(self, "defocus_nm", float(ab.defocus_nm))
        if not self.label:
            object.__setattr__(self, "label", f"d{self.dose:g}/{ab.label}")

    @property
    def name(self) -> str:
        return self.label


@dataclass(frozen=True)
class ProcessWindow:
    """A weighted dose x pupil-aberration corner grid — the condition axis.

    The window is what robust objectives
    (:class:`repro.smo.objective.ProcessWindowSMOObjective`) optimize
    across and what the harness process-window report sweeps.  It is a
    hashable frozen value object, so it rides inside
    :class:`repro.harness.RunSettings` and pickles across the parallel
    sweep's process pool.

    Corners are grouped by aberration for evaluation:
    :meth:`conditions` returns the distinct
    :class:`~repro.optics.zernike.PupilAberration` specs (one imaging
    pass each) and :meth:`condition_index` maps every corner to its
    pass, so a C-corner window with F distinct specs costs F aerial
    evaluations — dose corners are free (an exact post-aerial
    ``dose**2`` scaling).  A window is the only way a pupil condition
    reaches an imaging engine: engines image the nominal condition in
    ``aerial`` and any other through ``aerial_conditions(mask, source,
    window.conditions())``.
    """

    corners: Tuple[ProcessCorner, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "corners", tuple(self.corners))
        if not self.corners:
            raise ValueError("a ProcessWindow needs at least one corner")

    # ------------------------------------------------------------------
    @property
    def num_corners(self) -> int:
        return len(self.corners)

    @property
    def doses(self) -> np.ndarray:
        """Per-corner dose factors, shape ``(C,)``."""
        return np.array([c.dose for c in self.corners])

    @property
    def weights(self) -> np.ndarray:
        """Per-corner loss weights, shape ``(C,)``."""
        return np.array([c.weight for c in self.corners])

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(c.label for c in self.corners)

    def conditions(self) -> Tuple["PupilAberration", ...]:
        """Distinct pupil-aberration specs in first-appearance order.

        Each entry is one imaging pass (one aberrated pupil stack,
        shared through :mod:`repro.optics.cache`); all corners are
        resolved against this tuple by :meth:`condition_index`.
        """
        seen: Dict[Any, "PupilAberration"] = {}
        for c in self.corners:
            seen.setdefault(c.aberrations.cache_key, c.aberrations)
        return tuple(seen.values())

    def condition_index(self) -> np.ndarray:
        """Corner -> index into :meth:`conditions`, shape ``(C,)``."""
        order = {ab.cache_key: i for i, ab in enumerate(self.conditions())}
        return np.array([order[c.aberrations.cache_key] for c in self.corners])

    def intensity_thresholds(self, config: OpticalConfig) -> np.ndarray:
        """Per-corner resist thresholds ``(C,)``, resolved against the
        config default for corners without a calibrated override."""
        return np.array(
            [
                config.intensity_threshold
                if c.intensity_threshold is None
                else c.intensity_threshold
                for c in self.corners
            ]
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: OpticalConfig) -> "ProcessWindow":
        """The paper's Eq. (8) window: nominal + dose corners, one focus.

        Weighted so that the robust weighted-sum objective over this
        window *is* the classic SMO loss ``gamma * L2 + eta * L_pvb``:
        the nominal corner carries ``gamma``, each +/-2 % dose corner
        carries ``eta``.
        """
        return cls(
            corners=(
                ProcessCorner(1.0, 0.0, config.gamma, "nominal"),
                ProcessCorner(config.dose_min, 0.0, config.eta, "dose-"),
                ProcessCorner(config.dose_max, 0.0, config.eta, "dose+"),
            )
        )

    @classmethod
    def from_grid(
        cls,
        doses: Sequence[float],
        focus_nm: Sequence[float] = (0.0,),
        weights: Optional[Sequence[float]] = None,
        aberrations: Sequence[Any] = (),
    ) -> "ProcessWindow":
        """Full dose x condition grid, dose-major corner order.

        The condition axis is the focus values (as pure-defocus specs)
        followed by any extra ``aberrations`` — each entry anything
        :meth:`repro.optics.zernike.PupilAberration.coerce` accepts
        (``{"Z5": 20, "Z7": -10}``-style mappings, raw radian phase
        maps, or spec objects).  ``weights`` is a flat per-corner
        sequence of length ``len(doses) * num_conditions`` (matching the
        dose-major order) or ``None`` for uniform weights.
        """
        from .zernike import PupilAberration

        doses = tuple(float(d) for d in doses)
        conditions = tuple(
            PupilAberration.defocus(float(f)) for f in focus_nm
        ) + tuple(PupilAberration.coerce(a) for a in aberrations)
        if not doses or not conditions:
            raise ValueError("need at least one dose and one condition")
        seen: Dict[Any, "PupilAberration"] = {}
        for ab in conditions:
            if ab.cache_key in seen:
                # A duplicate would silently double the condition's
                # effective weight in every robust reduction (e.g.
                # focus_nm=(40,) plus aberrations=({"Z4": 40},), or a
                # zero-coefficient spec duplicating the nominal corner).
                raise ValueError(
                    f"duplicate process condition {ab.label!r}: the "
                    "focus_nm and aberrations axes canonicalize to the "
                    "same spec; list each condition once"
                )
            seen[ab.cache_key] = ab
        count = len(doses) * len(conditions)
        if weights is None:
            weights = (1.0,) * count
        weights = tuple(float(w) for w in weights)
        if len(weights) != count:
            raise ValueError(
                f"need {count} weights for a {len(doses)}x{len(conditions)} "
                f"grid; got {len(weights)}"
            )
        corners = tuple(
            ProcessCorner(
                d,
                weight=weights[i * len(conditions) + j],
                aberrations=ab,
            )
            for i, d in enumerate(doses)
            for j, ab in enumerate(conditions)
        )
        return cls(corners=corners)
