"""Tests for the sharded parallel sweep and the joint multi-clip harness
mode: a ``workers=2`` run must reproduce the serial records exactly, and
``joint=True`` must produce one record per clip from a single shared
solve."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.geometry import Rect
from repro.harness import RunSettings, run_joint, run_matrix
from repro.harness.cli import build_parser
from repro.layouts import Clip, Dataset
from repro.layouts.synth import ClipStyle
from repro.optics import OpticalConfig, ProcessWindow

METHODS = ("NILT", "Abbe-MO", "BiSMO-NMN")


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


def _settings(iterations: int = 2) -> RunSettings:
    return RunSettings(
        config=OpticalConfig.preset("tiny"),
        iterations=iterations,
        num_kernels=8,
        unroll_steps=1,
        terms=2,
    )


def _assert_records_identical(serial, parallel):
    """Byte-identical deterministic content; only wall-clock may differ."""
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert (a.method, a.dataset, a.clip) == (b.method, b.dataset, b.clip)
        assert a.l2_nm2 == b.l2_nm2
        assert a.pvb_nm2 == b.pvb_nm2
        assert a.epe_violations == b.epe_violations
        assert a.epe_mean_nm == b.epe_mean_nm
        assert a.final_loss == b.final_loss
        assert a.losses.tobytes() == b.losses.tobytes()


class TestParallelSweep:
    def test_workers_records_match_serial(self):
        ds = _tiny_dataset(2)
        settings = _settings()
        serial = run_matrix([ds], settings, methods=METHODS)
        parallel = run_matrix([ds], settings, methods=METHODS, workers=2)
        _assert_records_identical(serial, parallel)

    def test_process_window_workers_records_match_serial(self):
        ds = _tiny_dataset(1)
        settings = dataclasses.replace(
            _settings(),
            process_window=ProcessWindow.from_grid((0.98, 1.0, 1.02), (0.0, 60.0)),
        )
        methods = METHODS[1:]
        serial = run_matrix([ds], settings, methods=methods)
        parallel = run_matrix([ds], settings, methods=methods, workers=2)
        assert [(r.method, r.clip) for r in parallel] == [
            (r.method, r.clip) for r in serial
        ] == [("Abbe-MO", "c0"), ("BiSMO-NMN", "c0")]
        for a, b in zip(serial, parallel):
            assert a.ok and b.ok
            for name in ("corner_loss", "corner_l2_nm2", "corner_epe", "losses"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert a.band_nm2 == b.band_nm2
            assert a.robust_loss == b.robust_loss

    def test_serial_order_is_clip_major(self):
        ds = _tiny_dataset(2)
        records = run_matrix([ds], _settings(), methods=METHODS[:2])
        keys = [(r.clip, r.method) for r in records]
        assert keys == [
            ("c0", "NILT"),
            ("c0", "Abbe-MO"),
            ("c1", "NILT"),
            ("c1", "Abbe-MO"),
        ]

    def test_progress_labels_cover_all_cells(self):
        ds = _tiny_dataset(1)
        seen = []
        run_matrix([ds], _settings(), methods=METHODS[:2], progress=seen.append)
        assert [(e.label, e.status) for e in seen] == [
            ("TINY/c0/NILT", "start"),
            ("TINY/c0/NILT", "ok"),
            ("TINY/c0/Abbe-MO", "start"),
            ("TINY/c0/Abbe-MO", "ok"),
        ]
        # terminal events carry the measured wall clock and attempt count
        for e in seen:
            if e.status == "ok":
                assert e.seconds is not None and e.seconds >= 0
                assert e.attempts == 1
        # string rendering keeps the CLI's printable form
        assert str(seen[0]) == "TINY/c0/NILT"
        assert str(seen[1]).startswith("TINY/c0/NILT [ok ")


class TestJointMode:
    def test_joint_one_record_per_clip(self):
        ds = _tiny_dataset(2)
        records = run_matrix([ds], _settings(), methods=METHODS, joint=True)
        assert len(records) == len(METHODS) * 2
        keys = [(r.method, r.clip) for r in records]
        assert keys[:2] == [("NILT", "c0"), ("NILT", "c1")]
        for r in records:
            assert np.isfinite(r.final_loss)
            assert len(r.losses) > 0
            assert r.runtime_s > 0

    def test_joint_parallel_matches_joint_serial(self):
        ds = _tiny_dataset(2)
        settings = _settings()
        serial = run_matrix([ds], settings, methods=METHODS, joint=True)
        parallel = run_matrix(
            [ds], settings, methods=METHODS, joint=True, workers=2
        )
        _assert_records_identical(serial, parallel)

    def test_run_joint_tile_traces_differ_per_clip(self):
        ds = _tiny_dataset(2)
        records = run_joint("BiSMO-NMN", list(ds), _settings(3), "TINY")
        assert len(records) == 2
        # per-clip traces come from the solver's per-tile loss history
        assert not np.array_equal(records[0].losses, records[1].losses)
        assert records[0].final_loss == records[0].losses[-1]

    def test_joint_runtime_is_amortized(self):
        ds = _tiny_dataset(2)
        records = run_joint("Abbe-MO", list(ds), _settings(), "TINY")
        # both clips report the same per-clip share of one joint solve
        assert records[0].runtime_s == pytest.approx(records[1].runtime_s)


class TestCLIFlags:
    def test_workers_and_joint_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table3", "--scale", "tiny", "--workers", "4", "--joint"]
        )
        assert args.workers == 4
        assert args.joint is True

    def test_flags_default_to_serial_per_clip(self):
        args = build_parser().parse_args(["table4"])
        assert args.workers == 1
        assert args.joint is False

    def test_fig_commands_have_no_sweep_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--workers", "2"])
