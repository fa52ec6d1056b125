"""The reprolint rules, each encoding one project invariant.

=====  ==================  ================================================
rule   name                invariant it guards
=====  ==================  ================================================
R1     fft-seam            every FFT is issued by repro.optics.backend
R2     env-registry        REPRO_*/BISMO_* env reads are declared + routed
R3     lock-discipline     memo/cache mutations happen inside ``with lock``
R4     graph-safety        autodiff primitives never mutate their arguments
R5     determinism         seeded RNGs, ordered reductions, no wall clock
R6     pool-hygiene        fftlib/harness are the only parallelism owners
R7     no-assert           library invariants raise real exceptions
R8     public-api          every repro.* module declares a truthful __all__
R10    metrics-registry    obs span/metric names are declared in the registry
=====  ==================  ================================================

Rules receive one :class:`~repro.analysis.engine.Module` at a time; the
R2 README cross-check runs as a project-level pass.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from .engine import Finding, Module, Project
from .registry import (
    DECLARED_ENV_VARS,
    GOVERNED_PREFIXES,
    RAW_READER_MODULES,
    is_declared_env_var,
    is_governed_env_var,
)
from ..obs import registry as obs_registry

__all__ = ["Rule", "ALL_RULES", "rules_by_id"]


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted name for a Name/Attribute chain, e.g. ``np.fft.fft2``."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the full dotted thing they import.

    ``import numpy as np``                -> {"np": "numpy"}
    ``from scipy import fft as sf``       -> {"sf": "scipy.fft"}
    ``from os import environ``            -> {"environ": "os.environ"}
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = node.module + "." + alias.name
    return aliases


def _aliases_with_relatives(module: Module) -> Dict[str, str]:
    """:func:`_import_aliases` plus relative imports resolved to full paths.

    The library's own obs call sites bind relatively
    (``from ..obs import span as obs_span``), which the absolute-only
    alias map skips; this variant resolves ``node.level`` against the
    module's package so those bindings participate in :func:`_resolve`.
    """
    aliases = _import_aliases(module.tree)
    if not module.module:
        return aliases
    parts = str(module.module).split(".")
    # the package the module's relative imports are anchored to;
    # __init__ modules are their own package
    pkg = parts if module.rel.endswith("__init__.py") else parts[:-1]
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ImportFrom) and node.level > 0):
            continue
        hops = node.level - 1
        if hops > len(pkg):
            continue  # import reaches above the package root; unresolvable
        base = pkg[: len(pkg) - hops]
        target = ".".join(base + ([node.module] if node.module else []))
        if not target:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            aliases[alias.asname or alias.name] = target + "." + alias.name
    return aliases


def _resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain through the module's import aliases."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    full_head = aliases.get(head, head)
    return full_head + ("." + rest if rest else "")


def _base_name(node: ast.AST) -> Optional[str]:
    """Peel Subscript/Attribute/Starred layers down to the root Name."""
    cur = node
    while isinstance(cur, (ast.Subscript, ast.Attribute, ast.Starred)):
        cur = cur.value
    if isinstance(cur, ast.Name):
        return cur.id
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Last identifier of a Name/Attribute chain (``self._memo`` -> ``_memo``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _finding(rule_id: str, module: Module, node: ast.AST, message: str) -> Finding:
    return Finding(
        rule=rule_id,
        path=module.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


class Rule:
    """Base class: one invariant, checked per-module (and optionally per-project)."""

    rule_id = "R?"
    name = "unnamed"
    description = ""

    def check(self, module: Module) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


# ---------------------------------------------------------------------------
# R1: fft-seam
# ---------------------------------------------------------------------------


class FftSeamRule(Rule):
    rule_id = "R1"
    name = "fft-seam"
    description = (
        "numpy.fft/scipy.fft may only be touched inside repro.optics.backend; "
        "everything else transforms through its HOST.fft2/ifft2 seam"
    )

    _FORBIDDEN = ("numpy.fft", "scipy.fft", "scipy.fftpack")
    _EXEMPT_MODULES = ("repro.optics.backend",)

    def _is_forbidden(self, resolved: str) -> bool:
        return any(
            resolved == pref or resolved.startswith(pref + ".") for pref in self._FORBIDDEN
        )

    def check(self, module: Module) -> Iterable[Finding]:
        if module.module in self._EXEMPT_MODULES:
            return
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._is_forbidden(alias.name):
                        yield _finding(
                            self.rule_id,
                            module,
                            node,
                            f"direct import of '{alias.name}'; use repro.optics.backend",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                if self._is_forbidden(node.module):
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"direct import from '{node.module}'; use repro.optics.backend",
                    )
                else:
                    for alias in node.names:
                        full = node.module + "." + alias.name
                        if self._is_forbidden(full):
                            yield _finding(
                                self.rule_id,
                                module,
                                node,
                                f"direct import of '{full}'; use repro.optics.backend",
                            )
            elif isinstance(node, ast.Attribute):
                resolved = _resolve(node, aliases)
                if resolved and self._is_forbidden(resolved):
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"direct use of '{resolved}'; route through repro.optics.backend",
                    )


# ---------------------------------------------------------------------------
# R2: env-registry
# ---------------------------------------------------------------------------


class EnvRegistryRule(Rule):
    rule_id = "R2"
    name = "env-registry"
    description = (
        f"{'/'.join(p + '*' for p in GOVERNED_PREFIXES)} environment variables "
        "must be declared in repro.analysis.registry, read only in "
        f"{', '.join(RAW_READER_MODULES)}, and documented in README's "
        "env-var table"
    )

    _READ_CALLS = ("os.environ.get", "os.getenv", "os.environ.pop", "os.environ.setdefault")

    def _env_name_of(self, node: ast.AST, aliases: Dict[str, str]) -> Optional[Tuple[ast.AST, str]]:
        """Return (location, var-name) when *node* reads an env variable."""
        if isinstance(node, ast.Call):
            resolved = _resolve(node.func, aliases)
            if resolved in self._READ_CALLS and node.args:
                name = _const_str(node.args[0])
                if name is not None:
                    return node, name
        elif isinstance(node, ast.Subscript):
            resolved = _resolve(node.value, aliases)
            if resolved == "os.environ":
                name = _const_str(node.slice)
                if name is not None:
                    return node, name
        return None

    def check(self, module: Module) -> Iterable[Finding]:
        aliases = _import_aliases(module.tree)
        is_reader = module.module in RAW_READER_MODULES
        for node in ast.walk(module.tree):
            hit = self._env_name_of(node, aliases)
            if hit is None:
                continue
            loc, name = hit
            if not is_governed_env_var(name):
                continue
            if not is_declared_env_var(name):
                yield _finding(
                    self.rule_id,
                    module,
                    loc,
                    f"env var '{name}' is not declared in repro.analysis.registry",
                )
            if not is_reader:
                yield _finding(
                    self.rule_id,
                    module,
                    loc,
                    f"raw read of '{name}' outside the designated readers "
                    f"({', '.join(RAW_READER_MODULES)})",
                )

    def check_project(self, project: Project) -> Iterable[Finding]:
        readme = project.root / "README.md"
        if not readme.is_file():
            return
        try:
            text = readme.read_text(encoding="utf-8")
        except OSError:
            return
        documented: Dict[str, int] = {}
        for idx, line in enumerate(text.splitlines(), start=1):
            if not line.lstrip().startswith("|"):
                continue
            for name in re.findall(r"`((?:REPRO|BISMO)_[A-Z0-9_]+)`", line):
                documented.setdefault(name, idx)
        for name in sorted(DECLARED_ENV_VARS):
            if name not in documented:
                yield Finding(
                    rule=self.rule_id,
                    path="README.md",
                    line=1,
                    col=0,
                    message=f"declared env var '{name}' missing from README's env-var table",
                )
        for name, line_no in sorted(documented.items()):
            if not is_declared_env_var(name):
                yield Finding(
                    rule=self.rule_id,
                    path="README.md",
                    line=line_no,
                    col=0,
                    message=f"README documents '{name}' but it is not declared "
                    "in repro.analysis.registry",
                )


# ---------------------------------------------------------------------------
# R3: lock-discipline
# ---------------------------------------------------------------------------

_GUARDED_NAME_RE = re.compile(r"(^|_)(memo|cache|caches|stats|building)s?$", re.IGNORECASE)
_LOCKY_NAME_RE = re.compile(r"lock", re.IGNORECASE)
_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault", "move_to_end"}
)


def _is_lock_ctor(node: ast.AST, aliases: Dict[str, str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    resolved = _resolve(node.func, aliases)
    return resolved in ("threading.Lock", "threading.RLock")


class LockDisciplineRule(Rule):
    rule_id = "R3"
    name = "lock-discipline"
    description = (
        "in modules/classes that own a threading lock, memo/cache-dict "
        "mutations must happen inside a 'with <lock>' block"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        aliases = _import_aliases(module.tree)

        module_locks: Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and _is_lock_ctor(node.value, aliases):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        module_locks.add(target.id)

        class_locks: Dict[ast.ClassDef, Set[str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                attrs: Set[str] = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign) and _is_lock_ctor(sub.value, aliases):
                        for target in sub.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                attrs.add(target.attr)
                if attrs:
                    class_locks[node] = attrs

        if not module_locks and not class_locks:
            return

        yield from self._scan(module, module.tree, in_lock=False, aliases=aliases)

    def _is_guarded_target(self, node: ast.AST) -> bool:
        terminal = _terminal_name(node)
        return terminal is not None and bool(_GUARDED_NAME_RE.search(terminal))

    def _with_holds_lock(self, node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            # accept `with lock:`, `with self._memo_lock:`, `with lock_for(x):`
            if isinstance(expr, ast.Call):
                expr = expr.func
            dotted = _dotted(expr)
            if dotted and _LOCKY_NAME_RE.search(dotted.rsplit(".", 1)[-1]):
                return True
        return False

    def _scan(self, module: Module, node: ast.AST, in_lock: bool, aliases: Dict[str, str]) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_in_lock = in_lock
            if isinstance(child, ast.With) and self._with_holds_lock(child):
                child_in_lock = True
            if not in_lock:
                yield from self._check_stmt(module, child)
            yield from self._scan(module, child, child_in_lock, aliases)

    def _check_stmt(self, module: Module, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and self._is_guarded_target(target.value):
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"write to guarded mapping "
                        f"'{_dotted(target.value) or _terminal_name(target.value)}' "
                        "outside a 'with <lock>' block",
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and self._is_guarded_target(target.value):
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"del on guarded mapping "
                        f"'{_dotted(target.value) or _terminal_name(target.value)}' "
                        "outside a 'with <lock>' block",
                    )
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and self._is_guarded_target(func.value)
            ):
                yield _finding(
                    self.rule_id,
                    module,
                    node,
                    f"mutating call '.{func.attr}()' on guarded mapping "
                    f"'{_dotted(func.value) or _terminal_name(func.value)}' "
                    "outside a 'with <lock>' block",
                )


# ---------------------------------------------------------------------------
# R4: graph-safety
# ---------------------------------------------------------------------------


class GraphSafetyRule(Rule):
    rule_id = "R4"
    name = "graph-safety"
    description = (
        "repro.autodiff primitive forward/VJP bodies must not mutate their "
        "arguments in place (would corrupt saved tensors / create_graph)"
    )

    _NDARRAY_MUTATORS = frozenset({"fill", "sort", "partition", "resize", "put", "setflags"})

    def check(self, module: Module) -> Iterable[Finding]:
        if not module.module or not module.module.startswith("repro.autodiff"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = self._params_of(node)
                if params:
                    yield from self._scan_body(module, node, params)

    def _params_of(self, fn: ast.AST) -> Set[str]:
        args = fn.args  # type: ignore[attr-defined]
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return {n for n in names if n not in ("self", "cls")}

    def _scan_body(self, module: Module, fn: ast.AST, params: Set[str]) -> Iterator[Finding]:
        for node in fn.body:  # type: ignore[attr-defined]
            yield from self._scan_node(module, node, params)

    def _scan_node(self, module: Module, node: ast.AST, params: Set[str]) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # nested function: its own params shadow outer ones
            inner = params - self._params_of(node)
            for sub in node.body:
                yield from self._scan_node(module, sub, inner)
            return
        yield from self._check_one(module, node, params)
        for child in ast.iter_child_nodes(node):
            yield from self._scan_node(module, child, params)

    def _check_one(self, module: Module, node: ast.AST, params: Set[str]) -> Iterator[Finding]:
        if isinstance(node, ast.AugAssign):
            base = _base_name(node.target)
            if base in params:
                yield _finding(
                    self.rule_id,
                    module,
                    node,
                    f"augmented assignment mutates parameter '{base}' in place",
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = _base_name(target)
                    if base in params:
                        yield _finding(
                            self.rule_id,
                            module,
                            node,
                            f"assignment into parameter '{base}' mutates it in place",
                        )
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "out" and _base_name(kw.value) in params:
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"out= aliases parameter '{_base_name(kw.value)}'",
                    )
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._NDARRAY_MUTATORS
                and _base_name(func.value) in params
            ):
                yield _finding(
                    self.rule_id,
                    module,
                    node,
                    f"call '.{func.attr}()' mutates parameter "
                    f"'{_base_name(func.value)}' in place",
                )


# ---------------------------------------------------------------------------
# R5: determinism
# ---------------------------------------------------------------------------


class DeterminismRule(Rule):
    rule_id = "R5"
    name = "determinism"
    description = (
        "no unseeded RNGs, no set iteration feeding float accumulation, "
        "no wall-clock reads outside repro.harness / repro.obs / "
        "repro.utils.timing"
    )

    _LEGACY_RNG = frozenset(
        {
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "ranf",
            "sample",
            "choice",
            "shuffle",
            "permutation",
            "normal",
            "uniform",
            "standard_normal",
            "seed",
        }
    )
    _WALL_CLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    # the harness owns run timing, utils.timing owns the monotonic seam,
    # and the observability layer (repro.obs) is the second sanctioned
    # wall-clock consumer: its spans time arbitrary library scopes, but
    # everything it records flows through utils.timing.tick
    _CLOCK_EXEMPT_PREFIXES = ("repro.harness", "repro.obs", "repro.utils.timing")

    def check(self, module: Module) -> Iterable[Finding]:
        aliases = _import_aliases(module.tree)
        clock_exempt = not module.is_library or any(
            module.module == pref or str(module.module).startswith(pref + ".")
            for pref in self._CLOCK_EXEMPT_PREFIXES
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                resolved = _resolve(node.func, aliases)
                if resolved is None:
                    pass
                elif resolved.endswith(".default_rng") or resolved == "default_rng":
                    if not node.args or (
                        isinstance(node.args[0], ast.Constant) and node.args[0].value is None
                    ):
                        yield _finding(
                            self.rule_id,
                            module,
                            node,
                            "unseeded default_rng(); use repro.utils.seed.seeded_rng",
                        )
                elif resolved.startswith("numpy.random.") and resolved.rsplit(".", 1)[-1] in self._LEGACY_RNG:
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"legacy global-state RNG '{resolved}'; "
                        "use repro.utils.seed.seeded_rng",
                    )
                elif not clock_exempt and resolved in self._WALL_CLOCK:
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"wall-clock read '{resolved}' in library code; "
                        "use repro.utils.timing",
                    )
                elif self._is_sum_over_set(node):
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        "sum() over a set has unordered float accumulation; "
                        "sort or use an ordered container",
                    )
            elif isinstance(node, ast.For) and self._is_set_expr(node.iter):
                if self._accumulates(node):
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        "iteration over a set feeds an accumulator; float "
                        "reduction order is nondeterministic",
                    )

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _is_sum_over_set(self, node: ast.Call) -> bool:
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and bool(node.args)
            and self._is_set_expr(node.args[0])
        )

    def _accumulates(self, loop: ast.For) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
                return True
        return False


# ---------------------------------------------------------------------------
# R6: pool-hygiene
# ---------------------------------------------------------------------------


class PoolHygieneRule(Rule):
    rule_id = "R6"
    name = "pool-hygiene"
    description = (
        "thread/process pools may only be constructed in repro.optics.fftlib "
        "and repro.harness.*, keeping the unified worker budget authoritative"
    )

    _POOL_CTORS = frozenset(
        {
            "concurrent.futures.ThreadPoolExecutor",
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.thread.ThreadPoolExecutor",
            "concurrent.futures.process.ProcessPoolExecutor",
            "threading.Thread",
            "multiprocessing.Pool",
            "multiprocessing.Process",
            "multiprocessing.pool.Pool",
            "multiprocessing.pool.ThreadPool",
            "multiprocessing.dummy.Pool",
        }
    )
    _EXEMPT_PREFIXES = ("repro.optics.fftlib", "repro.harness")

    def check(self, module: Module) -> Iterable[Finding]:
        if module.module and any(
            module.module == pref or module.module.startswith(pref + ".")
            for pref in self._EXEMPT_PREFIXES
        ):
            return
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                resolved = _resolve(node.func, aliases)
                if resolved in self._POOL_CTORS:
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"'{resolved}' constructed outside fftlib/harness; "
                        "route parallelism through fftlib.map_conditions or "
                        "the harness runner",
                    )


# ---------------------------------------------------------------------------
# R7: no-assert
# ---------------------------------------------------------------------------


class NoAssertRule(Rule):
    rule_id = "R7"
    name = "no-assert"
    description = (
        "library code must raise real exceptions; assert statements vanish "
        "under 'python -O'"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if not module.is_library:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield _finding(
                    self.rule_id,
                    module,
                    node,
                    "assert in library code; raise ValueError/RuntimeError "
                    "instead (asserts vanish under python -O)",
                )


# ---------------------------------------------------------------------------
# R8: public-api
# ---------------------------------------------------------------------------


class PublicApiRule(Rule):
    rule_id = "R8"
    name = "public-api"
    description = (
        "every repro.* module declares __all__ as a literal list of names "
        "that all exist in the module"
    )

    def check(self, module: Module) -> Iterable[Finding]:
        if not module.is_library:
            return
        if module.module and module.module.rsplit(".", 1)[-1] == "__main__":
            return

        all_node: Optional[ast.Assign] = None
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        all_node = node
        if all_node is None:
            yield Finding(
                rule=self.rule_id,
                path=module.rel,
                line=1,
                col=0,
                message="module has no __all__; declare its public API",
            )
            return

        names: List[str] = []
        value = all_node.value
        if not isinstance(value, (ast.List, ast.Tuple)):
            yield _finding(
                self.rule_id, module, all_node, "__all__ must be a literal list/tuple of strings"
            )
            return
        for elt in value.elts:
            name = _const_str(elt)
            if name is None:
                yield _finding(
                    self.rule_id, module, elt, "__all__ entries must be string literals"
                )
                return
            names.append(name)

        seen: Set[str] = set()
        for name in names:
            if name in seen:
                yield _finding(self.rule_id, module, all_node, f"duplicate __all__ entry '{name}'")
            seen.add(name)

        defined, has_star = self._defined_names(module.tree)
        if has_star:
            return
        for name in names:
            if name not in defined:
                yield _finding(
                    self.rule_id,
                    module,
                    all_node,
                    f"__all__ names '{name}' but the module never defines it",
                )

    def _defined_names(self, tree: ast.Module) -> Tuple[Set[str], bool]:
        defined: Set[str] = set()
        has_star = False

        def visit_block(stmts: Sequence[ast.stmt]) -> None:
            nonlocal has_star
            for node in stmts:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Name):
                                defined.add(sub.id)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(node.target, ast.Name):
                        defined.add(node.target.id)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        defined.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if alias.name == "*":
                            has_star = True
                        else:
                            defined.add(alias.asname or alias.name)
                elif isinstance(node, ast.If):
                    visit_block(node.body)
                    visit_block(node.orelse)
                elif isinstance(node, ast.Try):
                    visit_block(node.body)
                    visit_block(node.orelse)
                    visit_block(node.finalbody)
                    for handler in node.handlers:
                        visit_block(handler.body)
                elif isinstance(node, (ast.With, ast.For, ast.While)):
                    visit_block(node.body)

        visit_block(tree.body)
        return defined, has_star


# ---------------------------------------------------------------------------
# R10: metrics-registry
# ---------------------------------------------------------------------------


class MetricsRegistryRule(Rule):
    rule_id = "R10"
    name = "metrics-registry"
    description = (
        "span/metric names passed to repro.obs outside the obs package "
        "are string literals declared in repro.obs.registry"
    )

    # obs entry points whose first argument is a span name
    _SPAN_FUNCS = frozenset({"span", "traced"})
    # obs entry points whose first argument is a metric name, mapped to
    # the kind the registry must declare for it
    _METRIC_FUNCS = {
        "counter": "counter",
        "gauge": "gauge",
        "histogram": "histogram",
    }
    # modules that export the governed entry points (the package facade
    # plus the implementing submodules)
    _OBS_MODULES = ("repro.obs", "repro.obs.trace", "repro.obs.metrics")

    def _obs_func(self, resolved: str) -> Optional[str]:
        head, _, func = resolved.rpartition(".")
        if head in self._OBS_MODULES and (
            func in self._SPAN_FUNCS or func in self._METRIC_FUNCS
        ):
            return func
        return None

    def check(self, module: Module) -> Iterable[Finding]:
        name = str(module.module or "")
        # the obs package itself plumbs names generically (registry
        # lookups, exporters) and is the one place allowed to handle
        # them as data rather than declared literals
        if name == "repro.obs" or name.startswith("repro.obs."):
            return
        aliases = _aliases_with_relatives(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolve(node.func, aliases)
            if resolved is None:
                continue
            func = self._obs_func(resolved)
            if func is None:
                continue
            literal = _const_str(node.args[0]) if node.args else None
            if literal is None:
                yield _finding(
                    self.rule_id,
                    module,
                    node,
                    f"obs.{func}() name must be a string literal declared "
                    "in repro.obs.registry",
                )
            elif func in self._SPAN_FUNCS:
                if not obs_registry.is_declared_span(literal):
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"span name '{literal}' is not declared in "
                        "repro.obs.registry.DECLARED_SPANS",
                    )
            else:
                kind = obs_registry.metric_kind(literal)
                if kind is None:
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"metric name '{literal}' is not declared in "
                        "repro.obs.registry.DECLARED_METRICS",
                    )
                elif kind != self._METRIC_FUNCS[func]:
                    yield _finding(
                        self.rule_id,
                        module,
                        node,
                        f"metric '{literal}' is declared as a {kind}; "
                        f"use obs.{kind}() instead of obs.{func}()",
                    )


ALL_RULES: Tuple[Type[Rule], ...] = (
    FftSeamRule,
    EnvRegistryRule,
    LockDisciplineRule,
    GraphSafetyRule,
    DeterminismRule,
    PoolHygieneRule,
    NoAssertRule,
    PublicApiRule,
    MetricsRegistryRule,
)


def rules_by_id() -> Dict[str, Type[Rule]]:
    return {cls.rule_id: cls for cls in ALL_RULES}
