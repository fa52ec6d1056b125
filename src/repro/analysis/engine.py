"""Core of the reprolint engine: modules, findings, waivers, runner.

The engine parses every target file once into an :class:`ast.Module`,
wraps it in a :class:`Module` record (source lines, dotted module name,
waiver table), and hands the batch to each rule.  Rules yield
:class:`Finding` objects; the engine then applies per-line waiver
comments of the form::

    result = unsafe_thing()  # reprolint: allow[R4] caller owns the buffer

A waiver on its own line applies to the next source line, so block
constructs can be waived without trailing comments.  Waivers must name
the rule id and carry a non-empty reason; malformed waivers are
findings themselves (rule ``W0``) so they cannot rot silently.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "AnalysisError",
    "Finding",
    "Waiver",
    "Module",
    "Project",
    "Report",
    "module_name_for",
    "collect_files",
    "lint_source",
    "run_paths",
]

_WAIVER_RE = re.compile(
    r"#\s*reprolint:\s*allow\[(?P<rules>[A-Za-z0-9_,\s]*)\]\s*(?P<reason>.*)$"
)
_WAIVER_MARKER_RE = re.compile(r"#\s*reprolint\b")


class AnalysisError(RuntimeError):
    """Raised for unrecoverable engine errors (bad paths, bad config)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.waived:
            out["waived"] = True
            out["waiver_reason"] = self.waiver_reason
        return out


@dataclass(frozen=True)
class Waiver:
    """A parsed ``# reprolint: allow[...]`` comment."""

    line: int  # line the waiver comment sits on
    applies_to: int  # line the waiver covers
    rules: Tuple[str, ...]
    reason: str


@dataclass
class Module:
    """A parsed source file plus the metadata rules need."""

    path: Path  # absolute path on disk
    rel: str  # repo-relative posix path (stable for reports)
    module: Optional[str]  # dotted module name, e.g. "repro.optics.abbe"
    source: str
    tree: ast.Module
    waivers: Dict[int, List[Waiver]] = field(default_factory=dict)
    waiver_problems: List[Finding] = field(default_factory=list)

    @property
    def is_library(self) -> bool:
        """True for modules under the installable ``repro`` package."""
        return bool(self.module) and (
            self.module == "repro" or str(self.module).startswith("repro.")
        )

    def lines(self) -> List[str]:
        return self.source.splitlines()


@dataclass
class Project:
    """The full batch of modules a run sees, plus the repo root."""

    root: Path
    modules: List[Module]


@dataclass
class Report:
    """Outcome of a run: live findings, waived findings, engine errors."""

    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    errors: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


def _parse_waivers(rel: str, source: str, known_rules: Set[str]) -> Tuple[Dict[int, List[Waiver]], List[Finding]]:
    """Extract waiver comments via the tokenizer (no string false-positives).

    Returns a map of covered-line -> waivers, plus findings for malformed
    waivers (missing reason, unknown rule id, unparseable allow[...]).
    """
    waivers: Dict[int, List[Waiver]] = {}
    problems: List[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return waivers, problems

    lines = source.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        if not _WAIVER_MARKER_RE.search(tok.string):
            continue
        line_no, col = tok.start
        match = _WAIVER_RE.search(tok.string)
        if not match:
            problems.append(
                Finding(
                    rule="W0",
                    path=rel,
                    line=line_no,
                    col=col,
                    message="malformed reprolint comment; expected "
                    "'# reprolint: allow[RULE] reason'",
                )
            )
            continue
        rule_ids = tuple(
            part.strip().upper() for part in match.group("rules").split(",") if part.strip()
        )
        reason = match.group("reason").strip()
        if not rule_ids:
            problems.append(
                Finding(
                    rule="W0",
                    path=rel,
                    line=line_no,
                    col=col,
                    message="waiver names no rules; expected allow[RULE]",
                )
            )
            continue
        unknown = [rid for rid in rule_ids if rid not in known_rules]
        if unknown:
            problems.append(
                Finding(
                    rule="W0",
                    path=rel,
                    line=line_no,
                    col=col,
                    message="waiver names unknown rule(s): " + ", ".join(unknown),
                )
            )
            continue
        if not reason:
            problems.append(
                Finding(
                    rule="W0",
                    path=rel,
                    line=line_no,
                    col=col,
                    message="waiver for "
                    + ", ".join(rule_ids)
                    + " needs a reason after the bracket",
                )
            )
            continue
        # A comment-only line waives the next line; otherwise it waives
        # the line it trails.
        text_before = lines[line_no - 1][:col] if line_no - 1 < len(lines) else ""
        applies_to = line_no + 1 if not text_before.strip() else line_no
        waiver = Waiver(line=line_no, applies_to=applies_to, rules=rule_ids, reason=reason)
        waivers.setdefault(applies_to, []).append(waiver)
    return waivers, problems


def module_name_for(path: Path, root: Path) -> Optional[str]:
    """Dotted module name for *path*, or None when it has no import name.

    ``src/<pkg>/...`` resolves through the src layout; a script dir such
    as ``examples/*.py`` resolves as ``examples.<stem>``.
    """
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return None
    parts = list(rel.parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    stem = parts[-1][: -len(".py")]
    dotted = parts[:-1] + ([] if stem == "__init__" else [stem])
    if not dotted:
        return None
    return ".".join(dotted)


def collect_files(paths: Sequence[Path], root: Path) -> List[Path]:
    """Expand files/directories into a sorted list of python files."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for raw in paths:
        path = raw if raw.is_absolute() else root / raw
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
        for cand in candidates:
            resolved = cand.resolve()
            if "__pycache__" in resolved.parts or resolved in seen:
                continue
            seen.add(resolved)
            out.append(resolved)
    return out


def _load_module(path: Path, root: Path, known_rules: Set[str], module_name: Optional[str] = None) -> Tuple[Optional[Module], Optional[Finding]]:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        rel = _rel_of(path, root)
        return None, Finding(rule="E0", path=rel, line=1, col=0, message=f"cannot read file: {exc}")
    rel = _rel_of(path, root)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            rule="E0",
            path=rel,
            line=int(exc.lineno or 1),
            col=int(exc.offset or 0),
            message=f"syntax error: {exc.msg}",
        )
    waivers, problems = _parse_waivers(rel, source, known_rules)
    name = module_name if module_name is not None else module_name_for(path, root)
    return (
        Module(path=path, rel=rel, module=name, source=source, tree=tree, waivers=waivers, waiver_problems=problems),
        None,
    )


def _rel_of(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _apply_waivers(module: Module, findings: Iterable[Finding]) -> Tuple[List[Finding], List[Finding]]:
    live: List[Finding] = []
    waived: List[Finding] = []
    for finding in findings:
        waiver = _matching_waiver(module, finding)
        if waiver is not None:
            waived.append(
                Finding(
                    rule=finding.rule,
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    message=finding.message,
                    waived=True,
                    waiver_reason=waiver.reason,
                )
            )
        else:
            live.append(finding)
    return live, waived


def _matching_waiver(module: Module, finding: Finding) -> Optional[Waiver]:
    for waiver in module.waivers.get(finding.line, []):
        if finding.rule in waiver.rules:
            return waiver
    return None


def _run_rules(project: Project, rules: Sequence["RuleLike"], project_checks: bool) -> Report:
    report = Report(files_checked=len(project.modules))
    for module in project.modules:
        module_findings: List[Finding] = []
        for rule in rules:
            module_findings.extend(rule.check(module))
        live, waived = _apply_waivers(module, module_findings)
        report.findings.extend(live)
        report.waived.extend(waived)
        report.findings.extend(module.waiver_problems)
    if project_checks:
        for rule in rules:
            report.findings.extend(rule.check_project(project))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.waived.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


class RuleLike:
    """Structural interface rules implement (see rules.Rule)."""

    rule_id = "R?"

    def check(self, module: Module) -> Iterable[Finding]:
        raise NotImplementedError

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


def _select_rules(select: Optional[Sequence[str]]) -> List["RuleLike"]:
    from .rules import ALL_RULES, rules_by_id

    if select is None:
        return [cls() for cls in ALL_RULES]
    table = rules_by_id()
    picked: List[RuleLike] = []
    for rid in select:
        key = rid.strip().upper()
        if key not in table:
            raise AnalysisError(f"unknown rule id: {rid}")
        picked.append(table[key]())
    return picked


def lint_source(
    source: str,
    *,
    module_name: Optional[str],
    filename: str = "<memory>",
    select: Optional[Sequence[str]] = None,
    project_checks: bool = False,
    root: Optional[Path] = None,
) -> Report:
    """Lint a source string as if it were module *module_name*.

    The workhorse for fixture tests: rules that scope by module name
    (library-only rules, the FFT-seam exemption) see exactly the declared
    name rather than the fixture's on-disk location.
    """
    rules = _select_rules(select)
    known = {rule.rule_id for rule in rules} | {r.rule_id for r in _select_rules(None)}
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        report = Report(files_checked=1)
        report.errors.append(
            Finding(
                rule="E0",
                path=filename,
                line=int(exc.lineno or 1),
                col=int(exc.offset or 0),
                message=f"syntax error: {exc.msg}",
            )
        )
        return report
    waivers, problems = _parse_waivers(filename, source, known)
    module = Module(
        path=Path(filename),
        rel=filename,
        module=module_name,
        source=source,
        tree=tree,
        waivers=waivers,
        waiver_problems=problems,
    )
    project = Project(root=root or Path.cwd(), modules=[module])
    return _run_rules(project, rules, project_checks)


def run_paths(
    paths: Sequence[Path],
    *,
    root: Path,
    select: Optional[Sequence[str]] = None,
    project_checks: bool = True,
) -> Report:
    """Lint files/directories under *root* and return a :class:`Report`."""
    rules = _select_rules(select)
    known = {r.rule_id for r in _select_rules(None)}
    files = collect_files(paths, root)
    modules: List[Module] = []
    errors: List[Finding] = []
    for path in files:
        module, error = _load_module(path, root, known)
        if error is not None:
            errors.append(error)
        elif module is not None:
            modules.append(module)
    project = Project(root=root, modules=modules)
    report = _run_rules(project, rules, project_checks)
    report.errors.extend(errors)
    report.files_checked = len(files)
    return report
