"""reprolint — the project's own static-analysis pass.

The reproduction rests on invariants that exist only by convention:
every FFT is issued by :mod:`repro.optics.backend`, engine/cache
memo mutations hold their lock, fan-out reductions run in fixed
caller-thread order, library invariants raise real exceptions.  Nothing
in a generic linter knows any of that, so this package encodes the
conventions as machine-checked AST rules (``ALL_RULES`` in
:mod:`repro.analysis.rules`) with a CLI (``python -m repro.analysis``),
text/JSON reporters and per-line waiver comments::

    # reprolint: allow[R4] private per-stack accumulator owned by the caller

See ``docs/ARCHITECTURE.md`` ("Invariants & static analysis") for the
rule-to-invariant map.
"""

from __future__ import annotations

from .engine import (
    AnalysisError,
    Finding,
    Module,
    Project,
    Report,
    lint_source,
    run_paths,
)
from .registry import DECLARED_ENV_VARS, is_declared_env_var
from .rules import ALL_RULES, Rule, rules_by_id

__all__ = [
    "AnalysisError",
    "Finding",
    "Module",
    "Project",
    "Report",
    "lint_source",
    "run_paths",
    "DECLARED_ENV_VARS",
    "is_declared_env_var",
    "ALL_RULES",
    "Rule",
    "rules_by_id",
]
