"""Per-rule fixture tests for the reprolint engine.

Each rule has a good and a bad fixture under
``tests/analysis_fixtures/``; the bad fixture must produce at least the
expected number of findings for *its* rule and the good fixture none.
Fixtures are linted via :func:`repro.analysis.lint_source` with a
declared module name, because most rules scope by where code lives
(library vs. script, inside vs. outside the FFT seam).
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

FIXTURES = Path(__file__).parent / "analysis_fixtures"

#: rule id -> (declared module name, minimum findings in the bad fixture)
CASES = {
    "R1": ("repro.optics.sim_fixture", 3),
    "R2": ("repro.smo.env_fixture", 2),
    "R3": ("repro.optics.cache_fixture", 3),
    "R4": ("repro.autodiff.ops_fixture", 4),
    "R5": ("repro.smo.rand_fixture", 4),
    "R6": ("repro.smo.pool_fixture", 2),
    "R7": ("repro.smo.guard_fixture", 1),
    "R8": ("repro.utils.api_fixture", 2),
    "R10": ("repro.smo.obs_fixture", 5),
}

#: good fixtures that legitimately lint under a different module name
GOOD_MODULE_OVERRIDES = {
    "R2": "repro.optics.fftlib",
    "R6": "repro.harness.pool_fixture",
}


def _lint_fixture(rule: str, kind: str, module_name: str):
    source = (FIXTURES / f"{rule.lower()}_{kind}.py").read_text(encoding="utf-8")
    return lint_source(source, module_name=module_name, select=[rule])


@pytest.mark.parametrize("rule", sorted(CASES))
def test_bad_fixture_flags(rule):
    module_name, min_findings = CASES[rule]
    report = _lint_fixture(rule, "bad", module_name)
    assert report.exit_code == 1
    assert len(report.findings) >= min_findings
    assert all(f.rule == rule for f in report.findings)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_good_fixture_clean(rule):
    module_name = GOOD_MODULE_OVERRIDES.get(rule, CASES[rule][0])
    report = _lint_fixture(rule, "good", module_name)
    assert report.exit_code == 0
    assert report.findings == []


# ----------------------------------------------------------------------
# scoping: the same source is legal or not depending on where it lives
# ----------------------------------------------------------------------
def test_r1_backend_itself_is_exempt():
    source = (FIXTURES / "r1_bad.py").read_text(encoding="utf-8")
    report = lint_source(source, module_name="repro.optics.backend", select=["R1"])
    assert report.findings == []
    # the thread-policy module is no longer a place to transform
    report = lint_source(source, module_name="repro.optics.fftlib", select=["R1"])
    assert len(report.findings) >= 3


def test_r2_same_read_ok_inside_raw_reader():
    source = (FIXTURES / "r2_good.py").read_text(encoding="utf-8")
    outside = lint_source(source, module_name="repro.smo.env_fixture", select=["R2"])
    assert any(f.rule == "R2" for f in outside.findings)
    inside = lint_source(source, module_name="repro.optics.fftlib", select=["R2"])
    assert inside.findings == []


def test_r4_only_scopes_autodiff():
    source = (FIXTURES / "r4_bad.py").read_text(encoding="utf-8")
    report = lint_source(source, module_name="repro.smo.ops_fixture", select=["R4"])
    assert report.findings == []


def test_r5_wall_clock_allowed_in_harness():
    source = "import time\n\n\ndef stamp():\n    return time.perf_counter()\n"
    lib = lint_source(source, module_name="repro.smo.timers", select=["R5"])
    assert any("wall-clock" in f.message for f in lib.findings)
    harness = lint_source(source, module_name="repro.harness.runner", select=["R5"])
    assert harness.findings == []
    script = lint_source(source, module_name="examples.foo", select=["R5"])
    assert script.findings == []


def test_r5_wall_clock_allowed_in_obs():
    # repro.obs is the second sanctioned wall-clock consumer (its spans
    # time arbitrary scopes through utils.timing.tick)
    source = "import time\n\n\ndef stamp():\n    return time.perf_counter()\n"
    obs = lint_source(source, module_name="repro.obs.trace", select=["R5"])
    assert obs.findings == []


def test_r10_obs_package_itself_is_exempt():
    source = (FIXTURES / "r10_bad.py").read_text(encoding="utf-8")
    for module_name in ("repro.obs", "repro.obs.export"):
        report = lint_source(source, module_name=module_name, select=["R10"])
        assert report.findings == []


def test_r10_resolves_relative_obs_imports():
    # the library's call sites bind obs relatively; a bare absolute-only
    # alias map would silently skip them
    source = (
        '"""x."""\n'
        "from ..obs import span as obs_span\n\n"
        "__all__ = []\n\n\n"
        "def f():\n"
        '    with obs_span("solver.bogus"):\n'
        "        return None\n"
    )
    report = lint_source(source, module_name="repro.smo.fixture", select=["R10"])
    assert len(report.findings) == 1
    assert "solver.bogus" in report.findings[0].message


def test_r10_kind_mismatch_names_the_declared_kind():
    source = (
        '"""x."""\n'
        "from repro import obs\n\n"
        "__all__ = []\n\n\n"
        "def f():\n"
        '    obs.counter("solver.loss").inc()\n'
    )
    report = lint_source(source, module_name="repro.smo.fixture", select=["R10"])
    assert len(report.findings) == 1
    assert "declared as a gauge" in report.findings[0].message


def test_r6_pools_allowed_in_fftlib():
    source = (FIXTURES / "r6_bad.py").read_text(encoding="utf-8")
    report = lint_source(source, module_name="repro.optics.fftlib", select=["R6"])
    assert report.findings == []


def test_r7_scripts_may_assert():
    source = (FIXTURES / "r7_bad.py").read_text(encoding="utf-8")
    report = lint_source(source, module_name="examples.foo", select=["R7"])
    assert report.findings == []


def test_r8_missing_all_flags():
    source = "def helper():\n    return 1\n"
    report = lint_source(source, module_name="repro.utils.api_fixture", select=["R8"])
    assert any("__all__" in f.message for f in report.findings)
