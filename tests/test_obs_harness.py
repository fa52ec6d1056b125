"""Cross-process observability through the harness.

Pins the determinism contract of the shard merge: a ``workers=2``
``run_matrix`` sweep under tracing must reduce to a canonical trace
byte-identical to the serial run's, with equal integer counters —
regardless of process count, thread interleaving, or which worker ran
which cell.  (Raw merged metrics are *not* comparable across runs:
histograms carry wall-clock totals.)
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.geometry import Rect
from repro.harness import RunSettings, run_matrix
from repro.layouts import Clip, Dataset
from repro.layouts.synth import ClipStyle
from repro.optics import OpticalConfig

METHODS = ("NILT", "Abbe-MO")


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset_metrics()
    obs.drain_events()
    yield
    obs.disable()
    obs.reset_metrics()
    obs.drain_events()


def _tiny_dataset(n_clips: int = 2) -> Dataset:
    clips = tuple(
        Clip(
            name=f"c{i}",
            rects=(Rect(100 + 30 * i, 100, 300, 180),),
            cd_nm=32,
            tile_nm=500,
        )
        for i in range(n_clips)
    )
    style = ClipStyle(name="T", cd_nm=32, tile_nm=500, target_area_nm2=20000)
    return Dataset(name="TINY", clips=clips, style=style)


def _settings() -> RunSettings:
    return RunSettings(
        config=OpticalConfig.preset("tiny"),
        iterations=2,
        num_kernels=8,
        unroll_steps=1,
        terms=2,
    )


def _traced_sweep(tmp_path, workers: int):
    """Run the sweep under tracing; return (merged trace, records)."""
    shard_dir = tmp_path / f"shards-w{workers}"
    shard_dir.mkdir()
    labels = []

    def progress(event):
        if event.status == "start":
            labels.append(event.label)

    ds = _tiny_dataset(2)
    with obs.use(trace=True, metrics=True, shard_dir=str(shard_dir)):
        records = run_matrix(
            [ds], _settings(), methods=METHODS, workers=workers, progress=progress
        )
        trace = obs.merge_shards(obs.discover_shards(str(shard_dir)), labels)
    obs.reset_metrics()
    obs.drain_events()
    return trace, records


def _int_counters(trace) -> dict:
    return {
        k: v
        for k, v in trace["otherData"]["metrics"].items()
        if isinstance(v, int)
    }


class TestShardMergeDeterminism:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs-harness")
        serial, serial_records = _traced_sweep(tmp, workers=1)
        parallel, parallel_records = _traced_sweep(tmp, workers=2)
        return serial, parallel, serial_records, parallel_records

    def test_canonical_trace_is_worker_count_invariant(self, traces):
        serial, parallel, _, _ = traces
        assert obs.canonical_trace_bytes(serial) == obs.canonical_trace_bytes(
            parallel
        )

    def test_int_counters_match_across_worker_counts(self, traces):
        serial, parallel, _, _ = traces
        counters = _int_counters(serial)
        assert counters == _int_counters(parallel)
        assert counters["harness.cells"] == 4
        assert counters["solver.iterations"] == 2 * 4  # 2 iters x 4 cells
        assert counters["fft.transforms"] >= 4

    def test_records_unaffected_by_tracing(self, traces):
        serial, parallel, serial_records, parallel_records = traces
        assert len(serial_records) == len(parallel_records) == 4
        for a, b in zip(serial_records, parallel_records):
            assert (a.method, a.clip) == (b.method, b.clip)
            assert a.final_loss == b.final_loss
            assert a.losses.tobytes() == b.losses.tobytes()

    def test_merged_trace_covers_every_cell(self, traces):
        _, parallel, _, _ = traces
        other = parallel["otherData"]
        expected = [
            "TINY/c0/NILT",
            "TINY/c0/Abbe-MO",
            "TINY/c1/NILT",
            "TINY/c1/Abbe-MO",
        ]
        assert other["labels"] == expected
        assert other["missing"] == []
        spans = [ev for ev in parallel["traceEvents"] if ev["ph"] == "X"]
        cell_spans = [ev for ev in spans if ev["name"] == "harness.cell"]
        assert sorted(ev["args"]["label"] for ev in cell_spans) == sorted(expected)
        # every cell contributed nested solver spans, not just the shell
        for label in expected:
            names = {
                ev["name"] for ev in spans if ev["args"].get("cell") == label
            }
            assert "solver.iter" in names

    def test_worker_lanes_and_warmup_records(self, traces):
        serial, parallel, _, _ = traces
        assert serial["otherData"]["workers"] == 1
        assert parallel["otherData"]["workers"] == 2
        # pool initializers parked their warmup spans under @warmup
        assert parallel["otherData"]["warmups"] == 2
        pids = {
            ev["pid"] for ev in parallel["traceEvents"] if ev["ph"] == "X"
        }
        assert pids == {0, 1}

    def test_merged_trace_is_valid_chrome_json(self, traces):
        _, parallel, _, _ = traces
        parsed = json.loads(json.dumps(parallel, sort_keys=True))
        assert parsed["displayTimeUnit"] == "ms"
        for ev in parsed["traceEvents"]:
            assert ev["ph"] in ("X", "M")
            if ev["ph"] == "X":
                assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
                assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0


class TestCellScope:
    def test_cell_scope_writes_one_shard_record(self, tmp_path):
        with obs.use(trace=True, metrics=True, shard_dir=str(tmp_path)):
            with obs.cell_scope("DS/c0/M"):
                with obs.span("solver.iter", idx=0):
                    obs.counter("solver.iterations").inc()
        paths = obs.discover_shards(str(tmp_path))
        assert len(paths) == 1
        (record,) = [json.loads(line) for line in open(paths[0])]
        assert record["label"] == "DS/c0/M"
        names = [ev["name"] for ev in record["events"]]
        assert "harness.cell" in names and "solver.iter" in names
        # the shard carries the cell's metric *delta*
        assert record["metrics"]["solver.iterations"] == 1
        assert record["metrics"]["harness.cells"] == 1

    def test_cell_scope_disabled_is_silent(self, tmp_path):
        with obs.cell_scope("DS/c0/M"):
            pass
        assert obs.discover_shards(str(tmp_path)) == []
        assert obs.values() == {}

    def test_flush_shard_parks_warmup_events(self, tmp_path):
        with obs.use(trace=True, shard_dir=str(tmp_path)):
            with obs.span("harness.warmup"):
                pass
            obs.flush_shard()
        (path,) = obs.discover_shards(str(tmp_path))
        (record,) = [json.loads(line) for line in open(path)]
        assert record["label"] == obs.WARMUP_LABEL
        assert [ev["name"] for ev in record["events"]] == ["harness.warmup"]
