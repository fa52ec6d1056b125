"""Engine-level tests for reprolint: waivers, reporters, exit codes.

The per-rule behaviour lives in ``test_analysis_rules.py``; here we test
the machinery those rules ride on — waiver comments (same-line and
next-line), malformed-waiver meta-findings (W0), syntax-error handling
(E0), module-name resolution for the src layout, and the text / JSON
reporters the CLI prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_source, run_paths
from repro.analysis.__main__ import main
from repro.analysis.engine import module_name_for
from repro.analysis.registry import RAW_READER_MODULES
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import ALL_RULES, EnvRegistryRule

REPO_ROOT = Path(__file__).resolve().parents[1]

ASSERTING = "def positive(x):\n    assert x > 0\n    return x\n"


# ----------------------------------------------------------------------
# waivers
# ----------------------------------------------------------------------
def test_same_line_waiver_moves_finding_to_waived():
    source = (
        "def positive(x):\n"
        "    assert x > 0  # reprolint: allow[R7] exercised by fixture tests\n"
        "    return x\n"
    )
    report = lint_source(source, module_name="repro.smo.guard", select=["R7"])
    assert report.findings == []
    assert len(report.waived) == 1
    assert report.waived[0].waiver_reason == "exercised by fixture tests"
    assert report.exit_code == 0


def test_standalone_waiver_covers_next_line():
    source = (
        "def positive(x):\n"
        "    # reprolint: allow[R7] checked by the caller\n"
        "    assert x > 0\n"
        "    return x\n"
    )
    report = lint_source(source, module_name="repro.smo.guard", select=["R7"])
    assert report.findings == []
    assert len(report.waived) == 1


def test_waiver_only_silences_named_rule():
    source = (
        "def positive(x):\n"
        "    assert x > 0  # reprolint: allow[R4] wrong rule on purpose\n"
        "    return x\n"
    )
    report = lint_source(source, module_name="repro.smo.guard", select=["R7"])
    assert len(report.findings) == 1
    assert report.findings[0].rule == "R7"


def test_waiver_without_reason_is_a_w0_finding():
    source = ASSERTING.replace(
        "assert x > 0", "assert x > 0  # reprolint: allow[R7]"
    )
    report = lint_source(source, module_name="repro.smo.guard", select=["R7"])
    rules = {f.rule for f in report.findings}
    assert "W0" in rules


def test_waiver_with_unknown_rule_is_a_w0_finding():
    source = ASSERTING.replace(
        "assert x > 0", "assert x > 0  # reprolint: allow[R99] no such rule"
    )
    report = lint_source(source, module_name="repro.smo.guard", select=["R7"])
    assert any(f.rule == "W0" and "unknown rule" in f.message for f in report.findings)


def test_malformed_waiver_marker_is_a_w0_finding():
    source = ASSERTING.replace(
        "assert x > 0", "assert x > 0  # reprolint: please ignore"
    )
    report = lint_source(source, module_name="repro.smo.guard", select=["R7"])
    assert any(f.rule == "W0" for f in report.findings)


def test_waiver_inside_string_literal_is_ignored():
    source = 'MESSAGE = "# reprolint: allow[R7] not a comment"\n__all__ = ["MESSAGE"]\n'
    report = lint_source(source, module_name="repro.smo.guard")
    assert all(f.rule != "W0" for f in report.findings)


# ----------------------------------------------------------------------
# errors and exit codes
# ----------------------------------------------------------------------
def test_syntax_error_reports_e0_and_exit_2():
    report = lint_source("def broken(:\n", module_name="repro.smo.guard")
    assert report.errors and report.errors[0].rule == "E0"
    assert report.exit_code == 2


def test_exit_codes_clean_and_findings():
    clean = lint_source("__all__ = []\n", module_name="repro.smo.guard", select=["R7"])
    assert clean.exit_code == 0
    dirty = lint_source(ASSERTING, module_name="repro.smo.guard", select=["R7"])
    assert dirty.exit_code == 1


# ----------------------------------------------------------------------
# module-name resolution (src layout, script dirs, __init__)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rel, expected",
    [
        ("src/repro/optics/abbe.py", "repro.optics.abbe"),
        ("src/repro/optics/__init__.py", "repro.optics"),
        ("src/repro/__init__.py", "repro"),
        ("smobench/run.py", "smobench.run"),
        ("examples/quickstart.py", "examples.quickstart"),
        ("setup.cfg", None),
    ],
)
def test_module_name_for(rel, expected):
    assert module_name_for(REPO_ROOT / rel, REPO_ROOT) == expected


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
def test_text_reporter_lists_findings_and_summary():
    report = lint_source(ASSERTING, module_name="repro.smo.guard", select=["R7"])
    text = render_text(report)
    assert "R7" in text
    assert "1 finding" in text


def test_json_reporter_round_trips():
    report = lint_source(ASSERTING, module_name="repro.smo.guard", select=["R7"])
    payload = json.loads(render_json(report))
    assert payload["exit_code"] == 1
    assert payload["counts"] == {"R7": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "R7"
    assert finding["line"] == 2
    assert payload["files_checked"] == 1


def test_json_reporter_carries_waivers():
    source = (
        "def positive(x):\n"
        "    assert x > 0  # reprolint: allow[R7] fixture\n"
        "    return x\n"
    )
    report = lint_source(source, module_name="repro.smo.guard", select=["R7"])
    payload = json.loads(render_json(report))
    assert payload["findings"] == []
    (waived,) = payload["waived"]
    assert waived["waived"] is True
    assert waived["waiver_reason"] == "fixture"


# ----------------------------------------------------------------------
# the CLI end to end
# ----------------------------------------------------------------------
def test_cli_nonzero_on_bad_fixture(tmp_path):
    bad = tmp_path / "src" / "repro" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(ASSERTING + '__all__ = ["positive"]\n', encoding="utf-8")
    (tmp_path / "README.md").write_text("stub\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "--root",
            str(tmp_path),
            "--format",
            "json",
            "src",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["counts"].get("R7") == 1


def test_cli_help_names_every_rule(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    words = set(capsys.readouterr().out.replace(",", " ").replace(")", " ").split())
    assert {cls.rule_id for cls in ALL_RULES} <= words
    for module in RAW_READER_MODULES:
        assert module in EnvRegistryRule.description


def test_run_paths_on_fixture_tree(tmp_path):
    good = tmp_path / "src" / "repro" / "fine.py"
    good.parent.mkdir(parents=True)
    good.write_text('__all__ = ["VALUE"]\nVALUE = 3\n', encoding="utf-8")
    report = run_paths([Path("src")], root=tmp_path, project_checks=False)
    assert report.exit_code == 0
    assert report.files_checked == 1
