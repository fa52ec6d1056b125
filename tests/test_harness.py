"""Tests for the experiment harness: runner, tables, figures, CLI, report."""

import numpy as np
import pytest

from repro.harness import (
    METHOD_ORDER,
    RunRecord,
    RunSettings,
    ascii_plot,
    figure3_series,
    figure5_stats,
    render_series,
    render_table,
    run_clip,
    run_matrix,
    table3,
    table4,
    table_to_csv,
)
from repro.harness.cli import build_parser, main
from repro.harness.figures import FigureSeries
from repro.layouts import Clip, Dataset, iccad13
from repro.geometry import Rect
from repro.layouts.synth import ClipStyle
from repro.optics import OpticalConfig


def _tiny_clip() -> Clip:
    """A small clip in the 500 nm tiny tile."""
    return Clip(
        name="unit_clip",
        rects=(Rect(150, 100, 350, 180), Rect(150, 260, 220, 420)),
        cd_nm=32,
        tile_nm=500,
    )


def _settings(iterations=4) -> RunSettings:
    return RunSettings(
        config=OpticalConfig.preset("tiny"),
        iterations=iterations,
        num_kernels=8,
        unroll_steps=1,
        terms=2,
    )


def _tiny_dataset(n_clips=2) -> Dataset:
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


class TestRunClip:
    @pytest.mark.parametrize(
        "method", ["NILT", "DAC23-MILT", "Abbe-MO", "BiSMO-FD"]
    )
    def test_methods_produce_records(self, method):
        rec = run_clip(method, _tiny_clip(), _settings(), "TINY")
        assert rec.method == method
        assert rec.dataset == "TINY"
        assert rec.l2_nm2 >= 0
        assert rec.pvb_nm2 >= 0
        assert rec.epe_violations >= 0
        assert rec.runtime_s > 0
        assert len(rec.losses) > 0

    def test_am_smo_step_budget(self):
        rec = run_clip("AM-SMO(Abbe-Abbe)", _tiny_clip(), _settings(8), "TINY")
        # equal mask updates + SO overhead: >= one (5 SO + 10 MO) round
        assert len(rec.losses) >= 15

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            run_clip("Quantum-SMO", _tiny_clip(), _settings(), "TINY")

    def test_tile_mismatch_raises(self):
        clip = Clip(name="big", rects=(Rect(0, 0, 100, 100),), cd_nm=32, tile_nm=2000)
        with pytest.raises(ValueError):
            run_clip("Abbe-MO", clip, _settings(), "TINY")


class TestTables:
    @pytest.fixture(scope="class")
    def records(self):
        ds = _tiny_dataset(1)
        return run_matrix(
            [ds],
            _settings(3),
            methods=("NILT", "Abbe-MO", "BiSMO-NMN"),
        )

    def test_run_matrix_covers_all(self, records):
        assert len(records) == 3
        assert {r.method for r in records} == {"NILT", "Abbe-MO", "BiSMO-NMN"}

    def test_table3_structure(self, records):
        t = table3(records)
        labels = [label for label, _ in t.rows]
        assert labels == ["TINY", "Average", "Ratio"]
        assert len(t.columns) == 6  # 3 methods x (L2, PVB)

    def test_table3_ratio_reference_is_one(self, records):
        t = table3(records)
        ratio = t.row("Ratio")
        idx = t.columns.index("BiSMO-NMN L2")
        assert ratio[idx] == pytest.approx(1.0)

    def test_table4_structure(self, records):
        t = table4(records)
        labels = [label for label, _ in t.rows]
        assert labels == ["EPE avg.", "EPE ratio", "TAT avg. (s)", "TAT ratio"]
        assert t.columns == ["NILT", "Abbe-MO", "BiSMO-NMN"]

    def test_method_order_preserved(self, records):
        t = table4(records)
        assert t.columns.index("NILT") < t.columns.index("Abbe-MO")

    def test_render_and_csv(self, records, tmp_path):
        t = table3(records)
        text = render_table(t)
        assert "Table 3" in text and "Ratio" in text
        path = tmp_path / "t3.csv"
        table_to_csv(t, path)
        assert path.read_text().startswith("Table 3")

    @pytest.mark.parametrize("table", [table3, table4])
    def test_no_ok_record_raises(self, table):
        nan = float("nan")
        failed = RunRecord(
            method="Bogus-SMO", dataset="TINY", clip="c0", l2_nm2=nan,
            pvb_nm2=nan, epe_violations=0, epe_mean_nm=nan, runtime_s=nan,
            final_loss=nan, status="failed",
            error="KeyError: \"unknown method 'Bogus-SMO'\"", attempts=2,
        )
        with pytest.raises(ValueError, match="no ok records"):
            table([failed, failed])


class TestFigures:
    def test_figure3_series(self):
        series = figure3_series(
            _tiny_clip(),
            _settings(3),
            methods=("Abbe-MO", "BiSMO-FD"),
            dataset_name="TINY",
        )
        assert len(series) == 2
        assert series[0].style == "dashed"  # Abbe-MO is an MO method
        assert series[1].style == "solid"
        assert np.all(np.isfinite(series[0].values))

    def test_figure5_stats(self):
        ds = _tiny_dataset(2)
        stats = figure5_stats(
            ds, _settings(6), methods=("BiSMO-FD",), step_window=(1, 5)
        )
        data = stats["BiSMO-FD"]
        assert data["mean"].shape == data["std"].shape
        assert len(data["steps"]) == len(data["mean"])
        assert np.all(np.isfinite(data["mean"]))
        assert np.all(data["std"] >= 0)


class TestReportRendering:
    def test_render_series(self):
        s = [
            FigureSeries("a", np.arange(3), np.array([1.0, 2.0, 3.0])),
            FigureSeries("b", np.arange(2), np.array([5.0, 6.0]), style="dashed"),
        ]
        out = render_series(s)
        assert out.splitlines()[0] == "step,a[solid],b[dashed]"
        assert out.splitlines()[3].endswith(",")  # b exhausted

    def test_ascii_plot(self):
        s = [FigureSeries("x", np.arange(10), np.linspace(0, 1, 10))]
        art = ascii_plot(s, width=20, height=6)
        assert "a=x" in art
        assert "a" in art.splitlines()[0] + art.splitlines()[-2]


class TestCLI:
    def test_parser_commands(self):
        p = build_parser()
        args = p.parse_args(["table3", "--scale", "tiny", "--clips", "1"])
        assert args.command == "table3"
        assert args.scale == "tiny"

    def test_parser_fig3_options(self):
        p = build_parser()
        args = p.parse_args(["fig3", "--dataset", "ISPD19", "--steps", "10"])
        assert args.dataset == "ISPD19"
        assert args.steps == 10

    def test_parser_rejects_unknown_dataset(self):
        p = build_parser()
        with pytest.raises(SystemExit):
            p.parse_args(["fig3", "--dataset", "FAKE"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", ["table3", "table4", "pwindow", "fig5"])
    def test_parser_refuses_a_non_positive_clip_count(
        self, command, value, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--clips", value])
        assert exc.value.code == 2
        assert "--clips" in capsys.readouterr().err

    def test_main_refuses_a_preset_whose_tile_the_clips_do_not_use(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table3", "--scale", "tiny", "--clips", "1",
                  "--iterations", "1", "--methods", "Abbe-MO"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "[run]" not in err  # refused before any cell started
        assert "500 nm" in err and "2000 nm" in err
        assert "small" in err and "default" in err and "paper" in err

    @pytest.mark.parametrize(
        "command, extra, title",
        [
            ("table3", [], "Table 3"),
            ("table3", ["--workers", "2"], "Table 3"),
            ("pwindow", [], "Process window"),
        ],
    )
    def test_a_sweep_with_no_ok_cell_reports_health_and_exits_1(
        self, command, extra, title, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        code = main([command, "--scale", "small", "--clips", "1",
                     "--iterations", "1", "--methods", "Bogus-SMO", *extra])
        out, err = capsys.readouterr()
        assert code == 1
        assert "Sweep health" in err
        assert "[failed: KeyError" in err
        assert title not in out  # no result table rendered

    @pytest.mark.parametrize(
        "command, title", [("table3", "Table 3"), ("pwindow", "Process window")]
    )
    def test_a_failing_cell_still_renders_the_tables(
        self, command, title, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        code = main([command, "--scale", "small", "--clips", "1",
                     "--iterations", "1", "--methods", "Abbe-MO", "Bogus-SMO"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "Sweep health" in err
        assert title in out and "Abbe-MO" in out
