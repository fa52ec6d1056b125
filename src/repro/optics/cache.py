"""Shared optics cache — one build per :class:`OpticalConfig`, everywhere.

Every imaging consumer (Abbe / Hopkins engines, SMO objectives, the
baselines, the harness) used to rebuild pupil stacks, frequency grids
and SOCS decompositions per instance.  Because :class:`OpticalConfig` is
a hashable frozen dataclass, all of those derived quantities can be
memoized at module level and shared across engine instances: a second
engine for an identical configuration performs no recomputation.

Keys are restricted to the *physically relevant* fields (two configs
differing only in loss weights share one pupil stack).  Cached arrays
are returned read-only so a consumer cannot corrupt another's view, and
SOCS entries — whose key includes the source pixels — live in a bounded
LRU so alternating-minimization source rebuilds cannot grow the cache
without limit.

Hit/miss counters per category are exposed through :func:`stats` and
asserted by the cache tests; :func:`clear` resets everything (used by
benchmarks to measure cold-start costs).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from .config import OpticalConfig
from .source import SourceGrid

__all__ = [
    "freq_axes",
    "freq_grid",
    "source_grid",
    "zernike_map",
    "pupil_geometry",
    "pupil_stack",
    "conj_pairs",
    "socs",
    "abbe_engine",
    "hopkins_engine",
    "warmup",
    "stats",
    "reset_stats",
    "clear",
    "CACHE_MAXSIZE",
]

#: Per-category LRU capacity (entry count).  Config-keyed categories
#: stay tiny in practice; the bound matters for source-keyed entries.
CACHE_MAXSIZE = 32

#: Byte budget for SOCS kernel stacks, the one category whose entries
#: are both large and keyed on transient data (AM-style source rebuilds
#: hit it with a fresh source every round).  The newest entry is always
#: retained, so a single decomposition larger than the budget behaves
#: like the uncached pre-sharing code: one live copy, no pile-up.
SOCS_BUDGET_BYTES = 256 * 1024**2

_LOCK = threading.RLock()
_CACHES: Dict[str, "OrderedDict[Hashable, Tuple[Any, int]]"] = {}
_STATS: Dict[str, Dict[str, int]] = {}
#: In-flight builds (single-flight): concurrent lookups of one key wait
#: on the first builder's event instead of duplicating the work.
_BUILDING: Dict[Tuple[str, Hashable], threading.Event] = {}


def _lookup(
    category: str,
    key: Hashable,
    build: Callable[[], Any],
    weigh: Optional[Callable[[Any], int]] = None,
    budget: int = CACHE_MAXSIZE,
) -> Any:
    """LRU get-or-build with per-category hit/miss accounting.

    Entries weigh 1 against an entry-count budget unless ``weigh`` maps
    a value to its cost (e.g. bytes) against a matching ``budget``.
    ``build`` runs outside the lock so a slow miss (a TCC
    eigendecomposition takes seconds at scale) cannot stall unrelated
    categories.  Builds are *single-flight*: concurrent lookups of one
    key park on the first builder's event and read its insert (counted
    as a hit), so a condition-axis fan-out never duplicates a
    pupil-stack build.  A builder that raises wakes the waiters, and the
    first of them retries the build.
    """
    while True:
        with _LOCK:
            cache = _CACHES.setdefault(category, OrderedDict())
            stat = _STATS.setdefault(category, {"hits": 0, "misses": 0})
            if key in cache:
                stat["hits"] += 1
                cache.move_to_end(key)
                return cache[key][0]
            event = _BUILDING.get((category, key))
            if event is None:
                event = threading.Event()
                _BUILDING[(category, key)] = event
                stat["misses"] += 1
                break
        event.wait()
    try:
        value = build()
        weight = weigh(value) if weigh is not None else 1
        with _LOCK:
            # ``clear()`` may have replaced the category dict while
            # ``build`` ran outside the lock; re-resolve so the insert
            # lands in the *live* dict (not an orphaned one) and the
            # entry actually caches.
            cache = _CACHES.setdefault(category, OrderedDict())
            _STATS.setdefault(category, {"hits": 0, "misses": 0})
            if key not in cache:
                cache[key] = (value, weight)
                total = sum(w for _, w in cache.values())
                while total > budget and len(cache) > 1:
                    _, (_, evicted) = cache.popitem(last=False)
                    total -= evicted
            return cache[key][0]
    finally:
        with _LOCK:
            _BUILDING.pop((category, key), None)
        event.set()


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only (shared across consumers)."""
    arr.setflags(write=False)
    return arr


# ----------------------------------------------------------------------
# cache keys: only the fields the cached quantity actually depends on
# ----------------------------------------------------------------------
def _grid_key(config: OpticalConfig) -> Tuple:
    return (config.mask_size, config.tile_nm)


def _pupil_key(config: OpticalConfig) -> Tuple:
    return (
        config.mask_size,
        config.tile_nm,
        config.source_size,
        config.wavelength_nm,
        config.na,
    )


def _source_key(source: np.ndarray) -> Tuple:
    arr = np.ascontiguousarray(source, dtype=np.float64)
    return (arr.shape, arr.tobytes())


# ----------------------------------------------------------------------
# frequency grids
# ----------------------------------------------------------------------
def freq_axes(config: OpticalConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Memoized FFT frequency axes (1/nm) for the mask grid."""

    def build() -> Tuple[np.ndarray, np.ndarray]:
        from ..autodiff.functional import kernel_offsets

        n = config.mask_size
        # fftfreq's arithmetic: bin offsets times one bin's width
        f = _freeze(kernel_offsets(n, n) * (1.0 / (n * config.pixel_nm)))
        return f, f

    return _lookup("freq_axes", _grid_key(config), build)


def freq_grid(config: OpticalConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Memoized meshed (fx, fy) frequency grids, shape (N_m, N_m)."""

    def build() -> Tuple[np.ndarray, np.ndarray]:
        f, g = freq_axes(config)
        fx, fy = np.meshgrid(f, g, indexing="xy")
        return _freeze(fx), _freeze(fy)

    return _lookup("freq_grid", _grid_key(config), build)


def source_grid(config: OpticalConfig) -> SourceGrid:
    """Memoized default :class:`SourceGrid` for a configuration."""
    return _lookup(
        "source_grid",
        (config.source_size,),
        lambda: SourceGrid.from_config(config),
    )


def zernike_map(config: OpticalConfig, term: str) -> np.ndarray:
    """Memoized Zernike polynomial sampled on the mask frequency grid.

    One ``(N, N)`` map per (grid, optics, term); every aberration spec
    naming the term reuses it (the per-spec work is then a scalar
    multiply-accumulate plus one ``exp``).
    """
    from .zernike import _build_freq_map

    key = _grid_key(config) + (config.wavelength_nm, config.na, str(term))
    return _lookup(
        "zernike_map", key, lambda: _freeze(_build_freq_map(config, term))
    )


# ----------------------------------------------------------------------
# pupil crops (Abbe) and SOCS decompositions (Hopkins)
# ----------------------------------------------------------------------
def pupil_geometry(config: OpticalConfig):
    """Memoized crop geometry ``(K, centres)`` of the default source grid
    (see :func:`repro.optics.pupil.crop_geometry`); every aberration
    condition of a configuration shares it."""
    from .pupil import crop_geometry

    def build():
        k, centres = crop_geometry(config, source_grid(config))
        return k, _freeze(centres)

    return _lookup("pupil_geometry", _pupil_key(config), build)


def pupil_stack(config: OpticalConfig, aberration=0.0):
    """Memoized (aberrated) pupil crop stack as an autodiff leaf tensor.

    Returns ``(crops_tensor, valid_index)`` exactly as
    :func:`repro.optics.pupil.pupil_crops` does, on the shared
    :func:`pupil_geometry`, but the tensor object itself is shared:
    every :class:`AbbeImaging` built for an equivalent config holds the
    *same* ``(S, K, K)`` crops.

    ``aberration`` is anything
    :meth:`repro.optics.zernike.PupilAberration.coerce` accepts (a plain
    float is a wafer defocus in nm); the default is the nominal
    condition.  Keys are the spec's canonical identity, so
    ``ProcessCorner(defocus_nm=f)`` and ``ProcessCorner(aberrations=
    {"Z4": f})`` resolve to one cache entry — the same array object,
    hence bitwise-identical crops.
    """
    from .. import autodiff as ad
    from .zernike import PupilAberration

    ab = PupilAberration.coerce(aberration)

    def build():
        from .pupil import pupil_crops

        grid = source_grid(config)
        crops, valid_index = pupil_crops(
            config, grid, ab, pupil_geometry(config)
        )
        _freeze(crops)
        return ad.Tensor(crops), tuple(_freeze(ix) for ix in valid_index)

    return _lookup("pupil_stack", _pupil_key(config) + (ab.cache_key,), build)


def conj_pairs(config: OpticalConfig, aberration=0.0):
    """Memoized ``+/-sigma`` conjugate pairing of a cached crop stack.

    Returns the verified involution array (see
    :func:`repro.optics.pupil.conj_pair_indices`) or ``None`` — complex
    (aberrated) stacks opt out of the conjugate *field* identity even
    when the phase is even in frequency (defocus, astigmatism,
    spherical); odd terms (coma, trefoil) additionally break the
    structural reversal.  Cached so every engine / condition-axis
    evaluation for one config shares a single verification pass.
    """
    from .pupil import conj_pair_indices
    from .zernike import PupilAberration

    ab = PupilAberration.coerce(aberration)

    def build():
        stack_t, valid_index = pupil_stack(config, ab)
        pairs = conj_pair_indices(
            stack_t.data, pupil_geometry(config)[1], valid_index,
            source_grid(config),
        )
        if pairs is not None:
            _freeze(pairs)
        return pairs

    return _lookup("conj_pairs", _pupil_key(config) + (ab.cache_key,), build)


def socs(
    config: OpticalConfig,
    source: np.ndarray,
    num_kernels: Optional[int] = None,
):
    """Memoized SOCS decomposition ``(weights, kernel_tensor, tcc_trace)``.

    The key includes the source pixels, so AM-SMO style source rebuilds
    create new entries (bounded by ``SOCS_BUDGET_BYTES``, newest entry
    always kept) while repeated construction for a fixed source — e.g.
    every Hopkins baseline in a harness sweep — decomposes the TCC once.
    """
    from .. import autodiff as ad
    from .hopkins import socs_kernels

    q = num_kernels or config.socs_terms
    key = _pupil_key(config) + (q,) + _source_key(source)

    def build():
        weights, kernels, tcc_trace = socs_kernels(config, source, q, source_grid(config))
        return _freeze(weights), ad.Tensor(_freeze(kernels)), tcc_trace

    return _lookup(
        "socs",
        key,
        build,
        weigh=lambda entry: entry[1].data.nbytes,
        budget=SOCS_BUDGET_BYTES,
    )


# ----------------------------------------------------------------------
# shared engine instances
# ----------------------------------------------------------------------
def abbe_engine(config: OpticalConfig):
    """Shared :class:`AbbeImaging` instance for a configuration.

    Engines are stateless after construction, so one instance can back
    any number of objectives / harness evaluations concurrently.
    """
    from .abbe import AbbeImaging

    return _lookup("abbe_engine", config, lambda: AbbeImaging(config))


def hopkins_engine(
    config: OpticalConfig,
    source: np.ndarray,
    num_kernels: Optional[int] = None,
):
    """Shared :class:`HopkinsImaging` for (config, source, Q)."""
    from .hopkins import HopkinsImaging

    q = num_kernels or config.socs_terms
    # Engines pin their kernel stacks, so they share the SOCS byte
    # budget — otherwise evicted decompositions would stay alive here.
    return _lookup(
        "hopkins_engine",
        (config, q) + _source_key(source),
        lambda: HopkinsImaging(config, source, q),
        weigh=lambda engine: engine._kernel_stack.data.nbytes,
        budget=SOCS_BUDGET_BYTES,
    )


def warmup(config: OpticalConfig, process_window=None) -> None:
    """Pre-build every config-keyed entry (grids, pupil stack, engine).

    Parallel harness workers call this once at start-up so all
    subsequent solves in the process hit a warm cache instead of paying
    the pupil-stack build inside their first timed iteration.  SOCS
    entries are source-keyed and cannot be warmed here; they populate on
    first use per (config, source, Q).

    ``process_window`` (a :class:`repro.optics.config.ProcessWindow`)
    additionally pre-builds the per-condition aberrated pupil stacks and
    conjugate pairings of its condition axis, fanned out across the
    :func:`repro.optics.fftlib.map_conditions` pool (the single-flight
    ``_lookup`` guarantees each stack is still built exactly once).
    """
    from ..obs import span
    from ..utils.faultinject import fault_point

    fault_point("cache.warmup")
    with span("harness.warmup", mask_size=config.mask_size):
        freq_axes(config)
        freq_grid(config)
        source_grid(config)
        pupil_geometry(config)
        pupil_stack(config)
        conj_pairs(config)
        abbe_engine(config)
        if process_window is not None:
            from . import fftlib

            conditions = list(process_window.conditions())

            def _build_condition(fi: int) -> None:
                pupil_stack(config, conditions[fi])
                conj_pairs(config, conditions[fi])

            list(fftlib.map_conditions(_build_condition, len(conditions)))


# ----------------------------------------------------------------------
# introspection / control
# ----------------------------------------------------------------------
def stats() -> Dict[str, Dict[str, int]]:
    """Copy of the per-category hit/miss counters."""
    with _LOCK:
        return {k: dict(v) for k, v in _STATS.items()}


def reset_stats() -> None:
    """Zero the counters without dropping cached entries."""
    with _LOCK:
        for stat in _STATS.values():
            stat["hits"] = 0
            stat["misses"] = 0


def clear() -> None:
    """Drop every cached entry and reset the counters."""
    with _LOCK:
        _CACHES.clear()
        _STATS.clear()
