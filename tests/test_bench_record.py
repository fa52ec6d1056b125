"""The benchmark recorder's aggregation, fed canned smobench output.

``scripts/bench_record.py`` runs smobench on a parent checkout and on
the working tree, then reduces the runs to medians, quartiles, wins and
a verdict per end-to-end metric, or refuses the comparison with a
reason, and pools the entries that measured the same code.  These tests
pin that reduction on hand-written run lines: no smobench run and no
clock.  One test runs git in a temporary repository to pin the change
code.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


br = _load()


def _stdout(metrics, correct=True, failed=0):
    """smobench's standard output: notes, then the result JSON line."""
    result = {
        "correct": correct,
        "attempted": 6,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }
    return "env {}\n== w seed=1 trace=0 ==\nchecks: all passed\n" + json.dumps(result)


def _timed(solve_s, **kw):
    metrics = {
        "setup_s": 0.007, "solve_s": solve_s, "iter_s": solve_s / 3,
        "peak_rss_mb": 140.0,
    }
    return br.parse_run(_stdout(metrics, **kw))


def _entry(parent, change, traced=None, code="c" * 40, **header):
    """An entry of paired solve_s values (other metrics constant);
    ``header`` overrides top-level fields such as the seed."""
    traced = traced or {
        "parent": br.parse_run(_stdout({"fft.transforms": 4884.0})),
        "change": br.parse_run(_stdout({"fft.transforms": 3468.0})),
    }
    raw = {
        "workload": "bismo-joint", "seed": 1, "pairs": len(parent),
        "run_seconds": 20,
        "parent": {"rev": "a" * 40, "dirty": False},
        "change": {"rev": "b" * 40, "dirty": True, "code": code},
        "nproc": 2, "python": "3.x", "platform": "linux",
        "timestamp": "2026-01-01T00:00:00Z",
        "runs": {
            "parent": [p if isinstance(p, dict) else _timed(p) for p in parent],
            "change": [c if isinstance(c, dict) else _timed(c) for c in change],
        },
        "traced": traced,
    }
    raw.update(header)
    return br.summarize(raw, SPEC)


PARENT = [1.00 + 0.01 * i for i in range(10)]


class TestParseRun:
    def test_reads_the_last_json_line(self):
        run = br.parse_run(_stdout({"solve_s": 0.5}, failed=1), 0, first=True)
        assert run["json"] and run["correct"] and run["first"]
        assert (run["attempted"], run["failed"]) == (6, 1)
        assert run["metrics"] == {"solve_s": 0.5}

    def test_correct_false(self):
        run = br.parse_run(_stdout({"solve_s": 0.5}, correct=False), 1)
        assert run["json"] and not run["correct"]

    @pytest.mark.parametrize(
        "stdout", ["", "env {}\nTraceback (most recent call last):", '{"correct": tr']
    )
    def test_no_json(self, stdout):
        run = br.parse_run(stdout, 1)
        assert not run["json"] and not run["correct"]
        assert run["metrics"] == {}


class TestAggregation:
    def test_quartiles(self):
        values = [float(v) for v in (7, 1, 10, 4, 2, 9, 3, 8, 6, 5)]
        assert br.quartiles(values) == pytest.approx((2.75, 5.5, 8.25))
        assert br.quartiles([0.5]) == (0.5, 0.5, 0.5)

    def test_medians_ratio_and_wins(self):
        entry = _entry(PARENT, [0.8 * p for p in PARENT])
        m = entry["end_to_end"]["solve_s"]
        assert m["parent"]["median"] == pytest.approx(1.045)
        assert m["parent"]["q1"] == pytest.approx(1.0175)
        assert m["parent"]["q3"] == pytest.approx(1.0725)
        assert m["change"]["median"] == pytest.approx(0.836)
        assert m["parent"]["values"] == PARENT
        assert m["ratio"] == pytest.approx(0.8)
        assert (m["wins"], m["pairs"]) == (10, 10)
        assert m["verdict"] == "gain"
        assert entry["refused"] is None
        # constant metrics: every pair ties, so neither side wins
        setup = entry["end_to_end"]["setup_s"]
        assert setup["wins"] == 0 and setup["verdict"] == "within bound"
        json.dumps(entry)  # the record is plain JSON

    @pytest.mark.parametrize("losses,verdict", [(1, "gain"), (2, "within bound")])
    def test_gain_needs_nine_of_ten_pairs(self, losses, verdict):
        change = [0.8 * p for p in PARENT]
        for i in range(losses):
            change[i] = PARENT[i] + 0.5
        m = _entry(PARENT, change)["end_to_end"]["solve_s"]
        assert m["wins"] == 10 - losses
        assert m["verdict"] == verdict

    def test_gain_needs_ten_pairs(self):
        m = _entry(PARENT[:9], [0.8 * p for p in PARENT[:9]])["end_to_end"]
        assert m["solve_s"]["wins"] == 9
        assert m["solve_s"]["verdict"] == "within bound"

    def test_gain_needs_a_gap_wider_than_the_parents_iqr(self):
        """10/10 wins by a hair: the median gap (0.01) is inside the
        parent's IQR (0.055)."""
        m = _entry(PARENT, [p - 0.01 for p in PARENT])["end_to_end"]["solve_s"]
        assert m["wins"] == 10
        assert m["verdict"] == "within bound"

    def test_regression_past_the_bound(self):
        m = _entry(PARENT, [1.3 * p for p in PARENT])["end_to_end"]["solve_s"]
        assert m["ratio"] == pytest.approx(1.3)
        assert m["verdict"] == "regression"
        inside = _entry(PARENT, [1.2 * p for p in PARENT])
        assert inside["end_to_end"]["solve_s"]["verdict"] == "within bound"

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        parent = [1.0, 1.6] * 5  # IQR 0.6 of median 1.3
        change = [1.6, 1.0] * 5
        m = _entry(parent, change)["end_to_end"]["solve_s"]
        assert m["verdict"] == "unresolved"
        # ... unless every run of the change beats every parent run
        parent = [2.0, 3.0] * 5
        change = [1.9, 1.95] * 5
        m = _entry(parent, change)["end_to_end"]["solve_s"]
        assert m["wins"] == 10 and m["verdict"] == "within bound"

    def test_higher_is_better(self):
        m = br.compare_metric(PARENT, [1.2 * p for p in PARENT], "higher", 0.1)
        assert m["wins"] == 10 and m["verdict"] == "gain"
        m = br.compare_metric(PARENT, [0.8 * p for p in PARENT], "higher", 0.1)
        assert m["wins"] == 0 and m["verdict"] == "regression"


class TestRefusals:
    def test_correct_false(self):
        change = [_timed(0.8) for _ in range(3)]
        change[2] = _timed(0.8, correct=False)
        entry = _entry([1.0] * 3, change)
        assert entry["refused"] == "run 3 of the change printed correct: false"
        assert entry["end_to_end"] == {}

    def test_no_json(self):
        parent = [1.0, br.parse_run("Traceback ...", 1), 1.0]
        entry = _entry(parent, [0.8] * 3)
        assert entry["refused"] == "run 2 of the parent printed no JSON (exit code 1)"

    def test_traced_run(self):
        traced = {
            "parent": br.parse_run("", None),
            "change": br.parse_run(_stdout({"fft.transforms": 1.0})),
        }
        entry = _entry([1.0] * 3, [0.8] * 3, traced=traced)
        assert entry["refused"] == (
            "the traced run of the parent printed no JSON (exit code None)"
        )

    def test_different_run_counts(self):
        entry = _entry(PARENT, PARENT[:9])
        assert entry["refused"] == "the parent has 10 timed runs and the change 9"

    def test_missing_metric(self):
        bare = br.parse_run(_stdout({"solve_s": 1.0}))
        entry = _entry([1.0, bare], [0.8, 0.8])
        assert entry["refused"] == "run 2 of the parent reported no setup_s"


class TestReport:
    def test_every_ratio_with_its_base(self):
        text = "\n".join(br.format_entry(_entry(PARENT, [0.8 * p for p in PARENT])))
        assert "bismo-joint seed 1: 10 pairs of 20 s runs" in text
        assert "(dirty)" in text
        assert (
            "solve_s      parent 1.045 [1.018, 1.073] -> change 0.836 "
            "[0.814, 0.858] s: 0.800x of parent, wins 10/10: gain (bound 0.25)"
        ) in text
        assert "parent: 0 of 60 operations failed" in text
        assert "fft.transforms" in text and "4884 -> 3468" in text
        assert "0.710x of parent" in text

    def test_refused_entry_prints_only_the_reason(self):
        entry = _entry(PARENT, PARENT[:9])
        lines = br.format_entry(entry)
        assert lines[1:] == [
            "  refused: the parent has 10 timed runs and the change 9"
        ]

    def test_header_names_the_code(self):
        header = br.format_entry(_entry(PARENT, PARENT))[0]
        assert header == (
            "bismo-joint seed 1: 10 pairs of 20 s runs; parent aaaaaaaaaa, "
            "change bbbbbbbbbb (dirty), code cccccccccc; nproc 2; "
            "2026-01-01T00:00:00Z"
        )
        legacy = _entry(PARENT, PARENT)
        del legacy["change"]["code"]
        assert ", code not recorded;" in br.format_entry(legacy)[0]


NOISY = [1.0, 1.6] * 5  # IQR 0.6 of median 1.3


class TestPooling:
    def test_groups_by_workload_seed_parent_and_code(self):
        first, again = _entry(PARENT, PARENT), _entry(PARENT, PARENT)
        seed2 = _entry(PARENT, PARENT, seed=2)
        other_code = _entry(PARENT, PARENT, code="d" * 40)
        other_parent = _entry(PARENT, PARENT)
        other_parent["parent"] = {"rev": "e" * 40, "dirty": False}
        legacy = [_entry(PARENT, PARENT), _entry(PARENT, PARENT)]
        for entry in legacy:
            del entry["change"]["code"]
        entries = [first, seed2, legacy[0], other_code, again, legacy[1], other_parent]
        index = {id(e): i for i, e in enumerate(entries)}
        grouped = [[index[id(e)] for e in g] for g in br.groups(entries)]
        assert grouped == [[0, 4], [1], [2], [3], [5], [6]]

    def test_pool_gives_one_verdict_over_every_pair(self):
        """A quiet batch reads gain on its own; pooled with a noisy batch
        of the same code, the 20 pairs read unresolved."""
        noisy = _entry(NOISY, [0.8 * p for p in NOISY], timestamp="T1")
        quiet = _entry(PARENT, [0.8 * p for p in PARENT], timestamp="T2")
        assert noisy["end_to_end"]["solve_s"]["verdict"] == "unresolved"
        assert quiet["end_to_end"]["solve_s"]["verdict"] == "gain"
        pooled = br.pool([noisy, quiet], SPEC)
        assert (pooled["pairs"], pooled["batches"]) == (20, 2)
        assert pooled["timestamp"] == "T1 to T2"
        assert pooled["refused"] is None
        m = pooled["end_to_end"]["solve_s"]
        assert m["parent"]["values"] == NOISY + PARENT
        assert (m["wins"], m["pairs"]) == (20, 20)
        assert m["parent"]["median"] == pytest.approx(1.045)
        assert (m["parent"]["q1"], m["parent"]["q3"]) == pytest.approx((1.0, 1.4725))
        assert m["ratio"] == pytest.approx(0.8)
        assert m["verdict"] == "unresolved"
        m = br.pool([quiet, quiet], SPEC)["end_to_end"]["solve_s"]
        assert (m["wins"], m["pairs"], m["verdict"]) == (20, 20, "gain")

    def test_pool_is_refused_when_an_entry_is(self):
        traced = {
            "parent": br.parse_run("", None),
            "change": br.parse_run(_stdout({"fft.transforms": 1.0})),
        }
        broken = _entry(PARENT, [0.8 * p for p in PARENT], traced=traced)
        quiet = _entry(PARENT, [0.8 * p for p in PARENT])
        pooled = br.pool([quiet, broken], SPEC)
        assert pooled["refused"] == (
            "entry 2: the traced run of the parent printed no JSON (exit code None)"
        )
        assert pooled["end_to_end"] == {}

    def test_report_prints_every_entry_and_each_pool(self):
        entries = [
            _entry(NOISY, [0.8 * p for p in NOISY], timestamp="T1"),
            _entry(PARENT, PARENT, seed=2, timestamp="T2"),
            _entry(PARENT, [0.8 * p for p in PARENT], timestamp="T3"),
        ]
        lines = br.report(entries, SPEC)
        tail = ", change bbbbbbbbbb (dirty), code cccccccccc; nproc 2; "
        assert [line for line in lines if not line.startswith(" ")] == [
            "bismo-joint seed 1: 10 pairs of 20 s runs; parent aaaaaaaaaa" + tail + "T1",
            "bismo-joint seed 1: 10 pairs of 20 s runs; parent aaaaaaaaaa" + tail + "T3",
            "bismo-joint seed 1: 20 pairs in 2 entries of 20 s runs; parent "
            "aaaaaaaaaa" + tail + "T1 to T3",
            "bismo-joint seed 2: 10 pairs of 20 s runs; parent aaaaaaaaaa" + tail + "T2",
        ]
        verdicts = [line.split(": ")[-1] for line in lines if line.startswith("  solve_s")]
        assert verdicts == [
            "unresolved (bound 0.25)", "gain (bound 0.25)",
            "unresolved (bound 0.25)", "within bound (bound 0.25)",
        ]
        # the pool prints no per-layer block of its own
        assert sum("per-layer" in line for line in lines) == 3


def test_code_id_names_the_code_that_runs(tmp_path):
    """The git tree of BENCHMARK.json, smobench/ and src/ as they are in
    the working tree: a docs edit leaves it, an untracked source file
    moves it, and the repository's own index is left alone."""

    def git(*args, stdin=None):
        return br._git(*args, root=tmp_path, stdin=stdin)

    for name, text in [
        ("BENCHMARK.json", "{}\n"), ("smobench/run.py", "\n"),
        ("src/a.py", "a = 1\n"), ("README.md", "docs\n"),
    ]:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    git("init", "-q")
    git("add", "--all")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "c")
    committed = git("mktree", stdin=git("ls-tree", "HEAD", *br.CODE_PATHS) + "\n")
    assert br.code_id(tmp_path) == committed
    (tmp_path / "README.md").write_text("more docs\n")
    assert br.code_id(tmp_path) == committed
    (tmp_path / "src" / "b.py").write_text("b = 2\n")
    assert br.code_id(tmp_path) != committed
    assert git("diff", "--cached", "--name-only") == ""
    assert "src/b.py" not in git("ls-files").split()
