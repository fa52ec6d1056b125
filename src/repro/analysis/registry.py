"""Declared environment-variable registry for the R2 env-registry rule.

Every governed environment variable the project reads must be declared
here, and only the ``RAW_READER_MODULES`` may read governed names from
``os.environ`` (:mod:`repro.utils.faultinject` is one because it must
stay importable before the rest of the package).  ``BISMO_`` stays a
governed prefix with nothing declared, so any ``BISMO_*`` read is a
finding.  The R2 project check also cross-checks this registry against
the env-var table in ``README.md`` so the docs cannot drift from code.
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
}

# Modules allowed to touch os.environ for governed prefixes directly.
# Everything else must go through these.
RAW_READER_MODULES: Tuple[str, ...] = (
    "repro.optics.fftlib",
    "repro.harness.resilience",
    "repro.obs.state",
    "repro.utils.faultinject",
)


def is_declared_env_var(name: str) -> bool:
    """Return True if *name* is a registered environment variable."""
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
