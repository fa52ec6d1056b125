"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 findings, 2 engine errors (syntax/IO/bad args).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import AnalysisError, run_paths
from .reporters import render_json, render_rule_list, render_text
from .rules import ALL_RULES


def _find_root(start: Path) -> Path:
    """Walk up from *start* to the repo root (marked by README.md + src/)."""
    cur = start.resolve()
    for candidate in (cur, *cur.parents):
        if (candidate / "README.md").is_file() and (candidate / "src").is_dir():
            return candidate
    return cur


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: static analysis for this repo's invariants "
        f"(rules {', '.join(cls.rule_id for cls in ALL_RULES)})",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "examples"],
        help="files or directories to lint (default: src examples)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repo root for module-name resolution and the README cross-check "
        "(default: auto-detected from cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run, e.g. R1,R7 (default: all)",
    )
    parser.add_argument(
        "--show-waived",
        action="store_true",
        help="also print findings suppressed by waiver comments",
    )
    parser.add_argument(
        "--no-project-checks",
        action="store_true",
        help="skip project-level checks (the R2 README cross-check)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0

    root = Path(args.root).resolve() if args.root else _find_root(Path.cwd())
    select: Optional[List[str]] = None
    if args.select:
        select = [part for part in args.select.split(",") if part.strip()]

    try:
        report = run_paths(
            [Path(p) for p in args.paths],
            root=root,
            select=select,
            project_checks=not args.no_project_checks,
        )
    except AnalysisError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, show_waived=args.show_waived))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
