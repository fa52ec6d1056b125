"""Tier-1 gate: the repository satisfies its own lint invariants.

This is the test that makes reprolint self-enforcing — any PR that
reintroduces a raw ``np.fft`` call, an undeclared env knob, an unlocked
memo write, an unseeded RNG, an ad-hoc thread pool, a library assert or
a drifted ``__all__`` fails here, with the offending locations in the
assertion message.  It runs the exact command CI's static-analysis job
runs: ``python -m repro.analysis src examples``.

The mypy half of the static-analysis story is config-checked here
(section shape, typed-core coverage) and executed only where mypy is
installed — it is a dev/CI tool, not a runtime dependency.
"""

import configparser
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import run_paths
from repro.analysis.reporters import render_text

REPO_ROOT = Path(__file__).resolve().parents[1]
LINT_TARGETS = ["src", "examples"]


def test_repo_lints_clean():
    report = run_paths([Path(p) for p in LINT_TARGETS], root=REPO_ROOT)
    assert report.exit_code == 0, "\n" + render_text(report, show_waived=True)
    assert report.files_checked > 80  # the whole tree was actually scanned


def test_waivers_in_tree_all_carry_reasons():
    report = run_paths([Path(p) for p in LINT_TARGETS], root=REPO_ROOT)
    for finding in report.waived:
        assert finding.waiver_reason.strip(), finding


# ----------------------------------------------------------------------
# mypy wiring
# ----------------------------------------------------------------------
TYPED_CORE = [
    "mypy-repro.optics.fftlib",
    "mypy-repro.optics.config",
    "mypy-repro.optics.zernike",
    "mypy-repro.autodiff.*",
]


def _mypy_config() -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read(REPO_ROOT / "mypy.ini")
    return parser


def test_mypy_config_covers_typed_core():
    parser = _mypy_config()
    assert parser.get("mypy", "mypy_path") == "src"
    assert parser.getboolean("mypy", "ignore_errors")  # gradual adoption
    for section in TYPED_CORE:
        assert parser.has_section(section), section
        assert not parser.getboolean(section, "ignore_errors")
        assert parser.getboolean(section, "disallow_untyped_defs")
        assert parser.getboolean(section, "disallow_incomplete_defs")


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None and shutil.which("mypy") is None,
    reason="mypy is not installed (CI's static-analysis job runs it)",
)
def test_mypy_passes_on_typed_core():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
