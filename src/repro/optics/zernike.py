"""Zernike aberration subsystem — generalized pupil-phase conditions.

``defocus_phase`` (PR 4) models one aberration: the paraxial Fresnel
defocus.  Real scanners drift in astigmatism, coma and spherical
aberration too, and every one of them is — exactly like defocus — a
*unit-modulus phase factor* multiplying the pupil on the mask frequency
grid.  The fused condition-axis machinery (``condition_stacks``,
``incoherent_image_stack``, the aberration-keyed optics cache) handles
arbitrary complex stacks, so the marginal cost of an extra aberration
condition is one streamed kernel pass sharing the mask-spectrum FFT.

This module provides

* :func:`zernike_polynomial` — Noll-normalized Zernike polynomials
  Z4..Z11 (defocus, astigmatism, coma, trefoil, spherical) evaluated on
  the pupil's normalized frequency disk;
* :class:`PupilAberration` — a frozen, hashable, picklable spec (a
  ``{term: coefficient-nm}`` mapping and/or a raw phase map in radians)
  that compiles into the complex pupil-phase factor;
* :func:`parse_aberration_spec` — the CLI string form
  (``"Z5=20,Z7=-10"``).

Coefficient conventions
-----------------------
``Z4`` is the focus axis and keeps the process-window unit: its
coefficient is **wafer defocus in nm**, and its phase map is *exactly*
the Fresnel factor of :func:`repro.optics.pupil.defocus_phase` — so
``ProcessCorner(defocus_nm=f)`` is pure sugar for
``ProcessCorner(aberrations={"Z4": f})`` and both compile to
bitwise-identical pupil stacks (they canonicalize to one spec and share
one cached stack).  On the unit disk the Fresnel map is the Noll Z4
polynomial plus a piston term (a global phase, invisible in intensity).
Every other term's coefficient is **nm of wavefront error** under the
Noll normalization, entering the pupil as ``exp(-i 2 pi c Z(rho,
theta) / lambda)`` — the same retardation sign as defocus.

Frequency parity matters for the fused streaming: terms with even
azimuthal order m (Z4 defocus, Z5/Z6 astigmatism, Z11 spherical) are
even under frequency reversal, so the *structural* ``+/-sigma`` pairing
of the shifted pupils survives; odd-m terms (Z7/Z8 coma, Z9/Z10
trefoil) flip sign — ``D(-f) = conj(D(f))`` — which breaks even the
structural pairing.  Either way the conjugate *field* identity
``F_{-sigma} = conj(F_{+sigma})`` needs real kernels, so aberrated
(complex) stacks always opt out of half-FFT streaming (see
:func:`repro.optics.pupil.conj_pair_indices`); the streamed fallback is
exact.

The polynomials are evaluated on the *mask* frequency grid with
``rho = |f| * lambda / NA``; shifted-pupil support reaches ``rho <= 2``,
where the polynomials extrapolate smoothly — consistent with the
Fresnel defocus factor, which has always been evaluated on the full
grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import factorial
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .config import OpticalConfig

__all__ = [
    "ZERNIKE_TERMS",
    "NOLL_INDICES",
    "zernike_radial",
    "zernike_polynomial",
    "term_parity",
    "defocus_exponent",
    "PupilAberration",
    "parse_aberration_spec",
]

#: Noll index -> (n, m) for the supported terms.  Noll's convention:
#: even j pairs with cos(m theta), odd j with sin(m theta) (encoded here
#: by the sign of m).
NOLL_INDICES: Dict[str, Tuple[int, int]] = {
    "Z4": (2, 0),     # defocus
    "Z5": (2, -2),    # oblique astigmatism
    "Z6": (2, 2),     # vertical astigmatism
    "Z7": (3, -1),    # vertical coma
    "Z8": (3, 1),     # horizontal coma
    "Z9": (3, -3),    # vertical trefoil
    "Z10": (3, 3),    # oblique trefoil
    "Z11": (4, 0),    # primary spherical
}

#: Supported term names in Noll order.
ZERNIKE_TERMS: Tuple[str, ...] = tuple(NOLL_INDICES)

_TERM_ORDER = {name: i for i, name in enumerate(ZERNIKE_TERMS)}


def _canonical_term(name: str) -> str:
    key = str(name).strip().upper()
    if key not in NOLL_INDICES:
        raise KeyError(
            f"unknown Zernike term {name!r}; choose from {ZERNIKE_TERMS}"
        )
    return key


def zernike_radial(n: int, m: int, rho: np.ndarray) -> np.ndarray:
    """Radial polynomial R_n^|m|(rho) (standard factorial series)."""
    m = abs(m)
    if (n - m) % 2:
        raise ValueError(f"R_n^m needs n - |m| even; got n={n}, m={m}")
    rho = np.asarray(rho, dtype=np.float64)
    out = np.zeros_like(rho)
    for k in range((n - m) // 2 + 1):
        coeff = (
            (-1.0) ** k
            * factorial(n - k)
            / (factorial(k) * factorial((n + m) // 2 - k) * factorial((n - m) // 2 - k))
        )
        out += coeff * rho ** (n - 2 * k)
    return out


def zernike_polynomial(
    term: str, rho: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Noll-normalized Zernike polynomial on (rho, theta).

    Normalization: ``mean(Z^2) = 1`` over the unit disk (so coefficients
    are RMS wavefront); ``m < 0`` selects the ``sin`` harmonic, ``m > 0``
    the ``cos`` one (Noll's sign convention, see :data:`NOLL_INDICES`).
    """
    n, m = NOLL_INDICES[_canonical_term(term)]
    radial = zernike_radial(n, m, rho)
    if m == 0:
        return np.sqrt(n + 1.0) * radial
    trig = np.sin(abs(m) * theta) if m < 0 else np.cos(abs(m) * theta)
    return np.sqrt(2.0 * (n + 1.0)) * radial * trig


def term_parity(term: str) -> int:
    """+1 when Z(-f) == Z(f) (even azimuthal order), -1 otherwise.

    Even terms preserve the structural ``+/-sigma`` pupil pairing under
    aberration; odd terms (coma, trefoil) break it — the parity the
    conjugate-pair opt-out tests assert.
    """
    _, m = NOLL_INDICES[_canonical_term(term)]
    return 1 if m % 2 == 0 else -1


def defocus_exponent(config: OpticalConfig, defocus_nm: float) -> np.ndarray:
    """Fresnel defocus phase exponent ``-pi lambda z (f^2 + g^2)``.

    The single source of truth for the focus axis:
    :func:`repro.optics.pupil.defocus_phase` and the ``Z4`` term of a
    :class:`PupilAberration` both exponentiate exactly this array, which
    is what makes ``defocus_nm`` sugar bitwise-exact.
    """
    fx, fy = config.freq_grid()
    return -np.pi * config.wavelength_nm * defocus_nm * (fx**2 + fy**2)


def _build_freq_map(config: OpticalConfig, term: str) -> np.ndarray:
    """Zernike polynomial sampled on the mask frequency grid.

    ``rho`` is the frequency radius normalized by the pupil cutoff
    ``NA/lambda`` (fftfreq layout, like every pupil quantity).  Used for
    every term except ``Z4``, whose map is the Fresnel exponent.
    """
    fx, fy = config.freq_grid()
    rho = np.hypot(fx, fy) / config.cutoff_freq
    theta = np.arctan2(fy, fx)
    return zernike_polynomial(term, rho, theta)


def parse_aberration_spec(spec: str) -> Dict[str, float]:
    """Parse the CLI form ``"Z5=20,Z7=-10"`` into a coefficient dict.

    Coefficients are nm (``Z4``: wafer defocus; others: Noll RMS
    wavefront).  Whitespace is ignored; empty specs are rejected.
    """
    out: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad aberration term {part!r}; expected e.g. 'Z5=20'"
            )
        name, value = part.split("=", 1)
        key = _canonical_term(name)
        out[key] = out.get(key, 0.0) + float(value)
    if not out:
        raise ValueError(f"empty aberration spec {spec!r}")
    return out


def _coerce_terms(terms: Any) -> Tuple[Tuple[str, float], ...]:
    """Canonical term tuple: validated names, zeros dropped, Noll order."""
    if terms is None:
        return ()
    items = terms.items() if isinstance(terms, Mapping) else terms
    merged: Dict[str, float] = {}
    for name, coeff in items:
        key = _canonical_term(name)
        merged[key] = merged.get(key, 0.0) + float(coeff)
    return tuple(
        sorted(
            ((k, v) for k, v in merged.items() if v != 0.0),
            key=lambda kv: _TERM_ORDER[kv[0]],
        )
    )


@dataclass(frozen=True, eq=False)
class PupilAberration:
    """Immutable pupil-phase specification for one process condition.

    ``terms`` maps Zernike names to coefficients in nm (see the module
    docstring for the per-term unit convention); ``custom`` is an
    optional raw phase-exponent map in **radians** on the mask frequency
    grid (fftfreq layout), added on top of the terms.  The object is
    hashable (equality/hash ride the canonical :attr:`cache_key`, with
    the custom map keyed by digest) and picklable, so it can sit inside
    :class:`repro.optics.config.ProcessCorner` and ride
    ``RunSettings`` across the harness process pool.
    """

    #: The shared nominal (no-aberration) spec; assigned after the class
    #: body (it needs a constructed instance).
    NULL: ClassVar["PupilAberration"]

    terms: Tuple[Tuple[str, float], ...] = ()
    custom: Optional[np.ndarray] = None
    _digest: Optional[str] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _coerce_terms(self.terms))
        if self.custom is not None:
            arr = np.ascontiguousarray(self.custom, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(
                    f"custom phase map must be square (N, N); got {arr.shape}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, "custom", arr)
            object.__setattr__(
                self, "_digest", hashlib.sha1(arr.tobytes()).hexdigest()
            )
        else:
            object.__setattr__(self, "_digest", None)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def coerce(
        cls, value: Union[None, float, int, Mapping, np.ndarray, "PupilAberration"]
    ) -> "PupilAberration":
        """Normalize any accepted aberration argument to a spec.

        ``None`` -> null; a scalar -> pure defocus of that many nm
        (legacy ``defocus_nm`` call sites); a mapping -> Zernike terms; a
        2-D array -> raw radian phase map; a spec passes through.
        """
        if isinstance(value, PupilAberration):
            return value
        if value is None:
            return _NULL
        if isinstance(value, (float, int, np.floating, np.integer)):
            return cls.defocus(float(value))
        if isinstance(value, Mapping):
            return cls(terms=tuple(value.items()))
        if isinstance(value, np.ndarray):
            return cls(custom=value)
        raise TypeError(
            f"cannot interpret {type(value).__name__} as a pupil aberration; "
            "pass a defocus float, a {term: nm} mapping, a radian phase map "
            "or a PupilAberration"
        )

    @classmethod
    def defocus(cls, defocus_nm: float) -> "PupilAberration":
        """Pure wafer-defocus spec (the legacy focus axis)."""
        if float(defocus_nm) == 0.0:
            return _NULL
        return cls(terms=(("Z4", float(defocus_nm)),))

    def add_defocus(self, defocus_nm: float) -> "PupilAberration":
        """This spec with ``defocus_nm`` folded into the Z4 coefficient."""
        if float(defocus_nm) == 0.0:
            return self
        return PupilAberration(
            terms=self.terms + (("Z4", float(defocus_nm)),), custom=self.custom
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def cache_key(self) -> Tuple[Tuple[Tuple[str, float], ...], Optional[str]]:
        """Hashable canonical identity (terms + custom-map digest)."""
        return (self.terms, self._digest)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PupilAberration):
            return NotImplemented
        return self.cache_key == other.cache_key

    def __hash__(self) -> int:
        return hash(self.cache_key)

    @property
    def is_null(self) -> bool:
        return not self.terms and self.custom is None

    @property
    def is_pure_defocus(self) -> bool:
        """True for the null spec or a lone Z4 term (the legacy axis)."""
        if self.custom is not None:
            return False
        return len(self.terms) == 0 or (
            len(self.terms) == 1 and self.terms[0][0] == "Z4"
        )

    @property
    def defocus_nm(self) -> float:
        """The Z4 (wafer defocus) component in nm."""
        for name, coeff in self.terms:
            if name == "Z4":
                return coeff
        return 0.0

    @property
    def label(self) -> str:
        """Compact human label, matching the legacy focus form when
        possible (``f40nm``) so existing corner labels are preserved."""
        if self.is_pure_defocus:
            return f"f{self.defocus_nm:g}nm"
        parts = [f"{name}{coeff:+g}" for name, coeff in self.terms]
        if self.custom is not None:
            parts.append("custom")
        return ",".join(parts)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def phase_exponent(self, config: OpticalConfig) -> np.ndarray:
        """Real phase exponent (radians) on the mask frequency grid."""
        from . import cache

        n = config.mask_size
        out = np.zeros((n, n), dtype=np.float64)
        for name, coeff in self.terms:
            if name == "Z4":
                out += defocus_exponent(config, coeff)
            else:
                out += (
                    -2.0 * np.pi * coeff / config.wavelength_nm
                ) * cache.zernike_map(config, name)
        if self.custom is not None:
            if self.custom.shape != (n, n):
                raise ValueError(
                    f"custom phase map shape {self.custom.shape} != grid "
                    f"({n}, {n})"
                )
            out += self.custom
        return out

    def phase(self, config: OpticalConfig) -> np.ndarray:
        """Complex unit-modulus pupil-phase factor ``exp(i W)``.

        Pure-defocus specs exponentiate :func:`defocus_exponent`
        directly — the identical computation as
        :func:`repro.optics.pupil.defocus_phase`, giving bitwise parity
        between ``defocus_nm`` sugar and an explicit ``{"Z4": c}`` spec.
        """
        if self.is_pure_defocus:
            return np.exp(1j * defocus_exponent(config, self.defocus_nm))
        return np.exp(1j * self.phase_exponent(config))


#: The shared nominal (no-aberration) spec.
_NULL = PupilAberration()
PupilAberration.NULL = _NULL
