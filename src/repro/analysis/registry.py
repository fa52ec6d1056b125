"""Declared environment-variable registry for the R2 env-registry rule.

Every ``REPRO_*`` / ``BISMO_*`` environment variable the project reads
must be declared here, and raw ``os.environ`` reads of those prefixes
are only permitted in the designated reader modules listed in
``RAW_READER_MODULES`` (:mod:`repro.optics.fftlib` for the library,
``benchmarks/bench_env.py`` for the benchmark suite,
:mod:`repro.harness.resilience` for the harness resilience knobs,
:mod:`repro.obs.state` for the observability switches, and
:mod:`repro.utils.faultinject` for the fault plan, which must stay
importable before the rest of the package).  The R2 project check additionally
cross-checks this registry against the env-var table in ``README.md``
so the docs cannot drift from the code.
"""

from __future__ import annotations

from typing import Dict, Tuple

# Prefixes the registry governs.  Reads of anything else (PATH, CI, ...)
# are out of scope for R2.
GOVERNED_PREFIXES: Tuple[str, ...] = ("REPRO_", "BISMO_")

# name -> one-line description (kept in sync with README's env-var table
# by the R2 project-level cross-check).
DECLARED_ENV_VARS: Dict[str, str] = {
    # -- library knobs (read by repro.optics.fftlib) -------------------
    "REPRO_FFT_WORKERS": "scipy FFT worker threads per transform",
    "REPRO_FFT_CHUNK": "batch chunk size for stacked transforms",
    "REPRO_COND_WORKERS": "process-condition fan-out worker threads",
    "REPRO_WORKER_BUDGET": "global cap on cond workers x FFT workers",
    # -- resilience knobs (read by repro.harness.resilience) -----------
    "REPRO_CELL_TIMEOUT": "harness per-cell wall-clock timeout in seconds (0 = off)",
    "REPRO_MAX_RETRIES": "harness per-cell retry budget for transient faults",
    # -- observability (read by repro.obs.state) -----------------------
    "REPRO_TRACE": "span tracing: 1 = on, mem = with tracemalloc peaks, 0 = off",
    "REPRO_METRICS": "metrics registry: 1 = on, 0 = off",
    # -- fault injection (read by repro.utils.faultinject) -------------
    "REPRO_FAULT_PLAN": "deterministic fault-injection plan (tests/CI)",
    # -- benchmark knobs (read by benchmarks.bench_env) ----------------
    "BISMO_BENCH_DIR": "directory for recorded BENCH_*.json artifacts",
    "BISMO_BENCH_SCALE": "batched-tiles bench scale: small|paper",
    "BISMO_BENCH_CLIPS": "batched-tiles bench tile-count override",
    "BISMO_BENCH_ITERS": "batched-tiles bench SMO iteration override",
    "BISMO_BENCH_CHECK_ONLY": "batched-tiles bench: parity only, no wall-clock gate",
    "BISMO_BENCH_FIG3_STEPS": "Fig. 3 convergence bench step override",
    "BISMO_BENCH_FIG5_CLIPS": "Fig. 5 pattern-sweep clip-count override",
    "BISMO_BENCH_FIG5_STEPS": "Fig. 5 pattern-sweep step override",
    "BISMO_FUSED_SCALE": "fused-imaging bench scale: small|paper",
    "BISMO_FUSED_TILES": "fused-imaging bench tile-count override",
    "BISMO_FUSED_CHECK_ONLY": "fused-imaging bench: parity only, no wall-clock gate",
    "BISMO_PW_SCALE": "process-window bench scale: small|paper",
    "BISMO_PW_TILES": "process-window bench tile-count override",
    "BISMO_PW_CHECK_ONLY": "process-window bench: parity only, no wall-clock gate",
    "BISMO_AB_SCALE": "aberration bench scale: small|paper",
    "BISMO_AB_TILES": "aberration bench tile-count override",
    "BISMO_AB_CHECK_ONLY": "aberration bench: parity only, no wall-clock gate",
    "BISMO_GRID_SCALES": "cross-solver grid bench scale list",
    "BISMO_GRID_TILES": "cross-solver grid bench tile-count override",
    "BISMO_GRID_CHECK_ONLY": "cross-solver grid bench: parity only, no wall-clock gate",
}

# Modules allowed to touch os.environ for governed prefixes directly.
# Everything else must go through these.
RAW_READER_MODULES: Tuple[str, ...] = (
    "repro.optics.fftlib",
    "benchmarks.bench_env",
    "repro.harness.resilience",
    "repro.obs.state",
    "repro.utils.faultinject",
)


def is_declared_env_var(name: str) -> bool:
    """Return True if *name* is a registered REPRO_*/BISMO_* variable."""
    return name in DECLARED_ENV_VARS


def is_governed_env_var(name: str) -> bool:
    """Return True if *name* falls under a governed prefix."""
    return name.startswith(GOVERNED_PREFIXES)


__all__ = [
    "GOVERNED_PREFIXES",
    "DECLARED_ENV_VARS",
    "RAW_READER_MODULES",
    "is_declared_env_var",
    "is_governed_env_var",
]
