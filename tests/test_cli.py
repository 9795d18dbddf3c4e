"""Command-line interface: subcommands, exit codes, output artifacts."""

import ast
import csv
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftwatch import Dataset, cli, core
from shiftwatch.cli import main
from shiftwatch.confidence import hoeffding_halfwidth
from shiftwatch.core import read_dataset, write_dataset
from shiftwatch.errors import ConfigError, DegenerateError
from shiftwatch.harness import ExperimentConfig, record_margins, run_experiment
from shiftwatch.shiftsim import Schedule, ShiftScenario


def _scored_source(path, n=200, seed=0):
    """Source CSV with a precomputed score column (scores track errors)."""
    rng = np.random.default_rng(seed)
    errors = rng.random(n) * 0.5
    scores = errors + rng.normal(0.0, 0.02, n)
    write_dataset(path, Dataset(rng.random((n, 2)), errors, scores))
    return path


def _knn_source(path, n=400, seed=5):
    """Labeled source CSV without a score column, so monitor fits its k-NN;
    the error rises with f0."""
    features = np.random.default_rng(seed).random((n, 2))
    write_dataset(path, Dataset(features, 0.9 * features[:, 0]))
    return path


def _assert_one_line_error(result, *fragments):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught traceback
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    for fragment in fragments:
        assert fragment in lines[0]


class TestCalibrateCommand:
    def test_emits_selector_and_90_row_grid(self, runner, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["calibrate", "--source", str(src), "--out-dir", str(out)]
        )
        assert result.exit_code == 0, result.output
        grid_lines = (out / "grid_report.csv").read_text().strip().splitlines()
        assert len(grid_lines) == 91  # header + 90 cells
        payload = json.loads((out / "selector.json").read_text())
        assert payload["grid_cells"] == 90
        assert payload["fdp"] < 0.2

    def test_missing_source_errors(self, runner, tmp_path):
        result = runner.invoke(main, ["calibrate", "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 1

    def test_no_selecting_cell_is_no_fdp(self, runner, tmp_path):
        """On a 21-row source at k = 10 every score is the mean of the whole
        10-row fit half, so no threshold pair selects a row: the error says
        so, where it once gave a 0/0 convention as the best FDP, 0.0000."""
        src = tmp_path / "src.csv"
        features = np.random.default_rng(0).random((21, 2))
        write_dataset(src, Dataset(features, 0.9 * features[:, 0]))
        result = runner.invoke(main, ["calibrate", "--source", str(src), "--out-dir", str(tmp_path / "o")])
        assert result.output == "Error: no threshold pair selects a calibration row\n"
        assert result.exit_code == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("later", ["0.5,0.4,0.1", '"0.5",0.4,0.1'], ids=["loadtxt", "per-cell"])
    def test_cell_longer_than_the_csv_field_limit_is_one_line(self, runner, tmp_path, later):
        """A finite 200,003-character cell is refused on both parse paths:
        a quoted cell later in the block sends it to the per-cell path."""
        src = tmp_path / "src.csv"
        src.write_text(f"f0,f1,error\n0.{'1' * 200_001},0.2,0.3\n{later}\n")
        result = runner.invoke(main, ["calibrate", "--source", str(src), "--out-dir", str(tmp_path / "o")])
        _assert_one_line_error(result, f"{src} line 2: field larger than field limit (131072)")


class TestMonitorCommand:
    def test_no_shift_replay_exits_zero(self, runner, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "monitor",
                "--source",
                str(src),
                "--production",
                str(src),  # replaying the source pool is a no-shift stream
                "--out-dir",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "monitor.json").read_text())
        assert summary["phi_q2_alarm_time"] is None

    def test_sudden_max_error_stream_exits_two(self, runner, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        prod = tmp_path / "prod.csv"
        rng = np.random.default_rng(1)
        write_dataset(
            prod,
            Dataset(rng.random((400, 2)), None, np.full(400, 0.99)),
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "monitor",
                "--source",
                str(src),
                "--production",
                str(prod),
                "--out-dir",
                str(out),
            ],
        )
        assert result.exit_code == 2, result.output
        summary = json.loads((out / "monitor.json").read_text())
        assert summary["phi_q2_alarm_time"] is not None
        assert "ALARM" in result.output

    def test_alpha1_alone_in_config_file(self, runner, tmp_path, monkeypatch):
        """The interval gets the rest of alpha_prod: alpha2 = 0.05 - 0.01."""
        src = _scored_source(tmp_path / "src.csv")
        config = tmp_path / "c.cfg"
        config.write_text("alpha1 = 0.01\n")
        seen, real = [], cli.source_statistics

        def recorded(data, selector, mon_cfg):
            stats = real(data, selector, mon_cfg)
            seen.append((data.n, mon_cfg, stats))
            return stats

        monkeypatch.setattr(cli, "source_statistics", recorded)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["monitor", "--config", str(config), "--source", str(src), "--production", str(src), "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "monitor.json").read_text())["events"] == 200
        (n, mon_cfg, stats), = seen
        assert (mon_cfg.alpha1, mon_cfg.alpha2) == (0.01, 0.04)
        assert stats.w_fd == hoeffding_halfwidth(n, 0.04)

    def test_bad_alpha_errors(self, runner, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        result = runner.invoke(
            main, ["monitor", "--source", str(src), "--production", str(src), "--alpha-prod", "1.5"]
        )
        assert result.exit_code == 1
        assert "alpha_prod" in result.output

    def test_monitor_requires_production(self, runner, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        result = runner.invoke(main, ["monitor", "--source", str(src)])
        assert result.exit_code == 1

    def test_stdin_streaming(self, runner, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        rows = ["f0,f1,score"] + ["0.5,0.5,0.99"] * 300
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "monitor",
                "--source",
                str(src),
                "--production",
                "-",
                "--out-dir",
                str(out),
            ],
            input="\n".join(rows) + "\n",
        )
        assert result.exit_code == 2, result.output

    def test_stdin_as_both_inputs_is_refused(self, runner, tmp_path):
        """Stdin is one stream, so it cannot be both the source and the
        production stream: the settings are refused before any input is
        read or the out dir made."""
        out = tmp_path / "out"
        args = ["monitor", "--source", "-", "--production", "-", "--out-dir", str(out)]
        result = runner.invoke(main, args, input=_scored_source(tmp_path / "src.csv").read_text())
        _assert_one_line_error(result, "Error: production: stdin")
        assert not out.exists()

    def _monitor_rows(self, runner, tmp_path, rows):
        src = _scored_source(tmp_path / "src.csv")
        prod = tmp_path / "prod.csv"
        prod.write_text("\n".join(rows) + "\n")
        return runner.invoke(
            main,
            ["monitor", "--source", str(src), "--production", str(prod), "--out-dir", str(tmp_path / "out")],
        )

    def test_non_numeric_cell_is_ingest_error(self, runner, tmp_path):
        result = self._monitor_rows(runner, tmp_path, ["f0,f1,score", "0.1,abc,0.2"])
        _assert_one_line_error(result, "line 2", "column f1", "'abc'")
        result = self._monitor_rows(runner, tmp_path, ["f0,f1,score", "0.1,0.2,0.3", "0.1,,0.2"])
        _assert_one_line_error(result, "line 3", "column f1")
        result = self._monitor_rows(runner, tmp_path, ["f0,f1,score", "0.1,0.2,high"])
        _assert_one_line_error(result, "line 2", "column score")
        result = self._monitor_rows(runner, tmp_path, ["f0,f1,error,score", "0.1,0.2,x,0.3"])
        _assert_one_line_error(result, "line 2", "column error")

    def test_nan_scores_are_rejected(self, runner, tmp_path):
        result = self._monitor_rows(runner, tmp_path, ["f0,f1,score"] + ["0.5,0.5,nan"] * 50)
        _assert_one_line_error(result, "line 2", "column score", "'nan'")
        result = self._monitor_rows(runner, tmp_path, ["f0,f1,score", "0.5,0.5,0.1", "0.5,0.5,-inf"])
        _assert_one_line_error(result, "line 3", "column score")

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "per-cell"])
    def test_error_outside_unit_interval_names_its_line(self, runner, tmp_path, quote):
        """An error cell outside [0, 1] is named by line and column, in a
        source file and in a production stream on stdin, on both parse
        paths: a quoted cell sends its block to the per-cell parse."""
        rows = ["f0,f1,error"] + [f"{quote}0.5{quote},0.5,0.5"] + ["0.5,0.5,0.5"] * 3 + ["0.5,0.5,1.5"]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        result = runner.invoke(main, ["calibrate", "--source", str(bad), "--out-dir", str(tmp_path / "o")])
        _assert_one_line_error(result, f"{bad} line 6, column error:", "[0, 1], got '1.5'")
        src = _scored_source(tmp_path / "src.csv")
        stdin = f"f0,f1,error,score\n{quote}0.5{quote},0.5,0.2,0.3\n0.5,0.5,-0.25,0.3\n"
        args = ["monitor", "--source", str(src), "--production", "-", "--out-dir", str(tmp_path / "o")]
        result = runner.invoke(main, args, input=stdin)
        _assert_one_line_error(result, "production stream line 3, column error:", "[0, 1], got '-0.25'")

    def test_non_finite_feature_is_rejected(self, runner, tmp_path):
        result = self._monitor_rows(runner, tmp_path, ["f0,f1,score", "inf,0.5,0.2"])
        _assert_one_line_error(result, "line 2", "column f0", "'inf'")

    def test_finite_scores_outside_unit_interval_are_legal(self, runner, tmp_path):
        result = self._monitor_rows(runner, tmp_path, ["f0,f1,score"] + ["0.5,0.5,-3.0", "0.5,0.5,7.5"] * 10)
        assert result.exit_code in (0, 2), result.output

    def _monitor_knn_rows(self, runner, tmp_path, header, n=60):
        """Production rows scored by the k-NN fitted on a 4-feature source."""
        rng = np.random.default_rng(5)
        src = tmp_path / "src.csv"
        features = rng.random((400, 4))
        write_dataset(src, Dataset(features, 0.9 * features[:, 0]))
        prod = tmp_path / "prod.csv"
        rows = [",".join(repr(float(x)) for x in row) for row in rng.random((n, len(header)))]
        prod.write_text("\n".join([",".join(header)] + rows) + "\n")
        return runner.invoke(
            main,
            ["monitor", "--source", str(src), "--production", str(prod), "--out-dir", str(tmp_path / "out")],
        )

    def test_feature_columns_out_of_order_are_rejected(self, runner, tmp_path):
        result = self._monitor_knn_rows(runner, tmp_path, ["f3", "f2", "f1", "f0"])
        _assert_one_line_error(
            result, "production stream", "f0..f{d-1} in order", "['f3', 'f2', 'f1', 'f0']"
        )
        result = self._monitor_knn_rows(runner, tmp_path, ["f0", "f1", "f2", "f3"])
        assert result.exit_code in (0, 2), result.output

    def test_feature_column_gap_is_rejected(self, runner, tmp_path):
        result = self._monitor_knn_rows(runner, tmp_path, ["f0", "f1", "f3"])
        _assert_one_line_error(
            result, "production stream", "f0..f{d-1} in order", "['f0', 'f1', 'f3']"
        )

    def test_feature_too_far_for_the_knn_is_one_line(self, runner, tmp_path):
        # a finite 1e200 passes ingest; the k-NN scored it as the mean of
        # its first k train rows
        src = tmp_path / "src.csv"
        features = np.random.default_rng(5).random((400, 2))
        write_dataset(src, Dataset(features, 0.9 * features[:, 0]))
        prod = tmp_path / "prod.csv"
        prod.write_text("f0,f1\n0.5,0.5\n1e200,0.5\n")
        result = runner.invoke(
            main,
            ["monitor", "--source", str(src), "--production", str(prod), "--out-dir", str(tmp_path / "out")],
        )
        # the second data row is event t=2; predict sees it as a batch of one
        _assert_one_line_error(result, "production event t=2:", "feature f0 = 1e+200", "not finite")
        assert "row 0" not in result.output


    def test_score_column_with_fitted_knn_is_rejected(self, runner, tmp_path):
        # the production scores would be compared with a q_hat calibrated
        # on k-NN scores; the header is checked when it is read, so also
        # with no row after it
        for n in (60, 0):
            result = self._monitor_knn_rows(runner, tmp_path, ["f0", "f1", "f2", "f3", "score"], n)
            _assert_one_line_error(result, "production stream", "'score' column")

    def test_scored_source_needs_production_scores(self, runner, tmp_path):
        for rows in (["f0,f1", "0.5,0.5"], ["f0,f1"]):
            result = self._monitor_rows(runner, tmp_path, rows)
            _assert_one_line_error(result, "production stream", "'score' column")

    @pytest.mark.parametrize("header", ["f0,score", "f0,f1,f2,f3,f4,f5,f6,score"])
    def test_scored_source_refuses_another_feature_count(self, runner, tmp_path, header):
        # the production rows of a 2-feature scored source carry 2 features
        # too, and a header with another count is refused with no row after it
        d = header.count(",")
        for rows in ([header, ",".join(["0.5"] * (d + 1))], [header]):
            result = self._monitor_rows(runner, tmp_path, rows)
            _assert_one_line_error(result, "production stream:", f"dimension {d} ", "dimension 2")
            assert "event" not in result.output

    def test_failed_run_leaves_no_summary(self, runner, tmp_path, monkeypatch):
        src = _scored_source(tmp_path / "src.csv")
        out = tmp_path / "out"
        args = ["monitor", "--source", str(src), "--out-dir", str(out), "--production"]
        assert runner.invoke(main, args + [str(src)]).exit_code == 0
        assert (out / "monitor.json").exists()
        prod = tmp_path / "prod.csv"
        prod.write_text("\n".join(["f0,f1,score"] + ["0.5,0.5,0.2"] * 5 + ["0.5,0.5,x"]) + "\n")
        monkeypatch.setattr(core, "CHUNK_ROWS", 2)
        _assert_one_line_error(runner.invoke(main, args + [str(prod)]), "line 7")
        assert not (out / "monitor.json").exists()
        assert len((out / "trajectory.csv").read_text().splitlines()) == 5  # header + 2 chunks

    @pytest.mark.parametrize("scored", [True, False], ids=["scored", "knn"])
    def test_chunked_stdin_matches_file(self, runner, tmp_path, monkeypatch, scored):
        """stdin read in chunks of drawn sizes, one size after another, gives
        the bytes of the file read whole: the k-NN scores each chunk in one
        call, and a row's score must not depend on the chunk it arrives in."""
        rng = np.random.default_rng(4)
        prod = tmp_path / "prod.csv"
        if scored:
            src = _scored_source(tmp_path / "src.csv")
            scores = np.concatenate([rng.random(100) * 0.5, rng.random(400) * 0.1 + 0.85])
            write_dataset(prod, Dataset(rng.random((500, 2)), None, scores))
        else:
            src = _knn_source(tmp_path / "src.csv")
            features = rng.random((500, 2))
            features[100:, 0] = 0.9 + 0.1 * features[100:, 0]
            write_dataset(prod, Dataset(features))
        args = ["monitor", "--source", str(src)]
        whole = runner.invoke(main, args + ["--production", str(prod), "--out-dir", str(tmp_path / "whole")])
        assert whole.exit_code == 2, whole.output
        expected = [(tmp_path / "whole" / name).read_bytes() for name in ("trajectory.csv", "monitor.json")]
        assert len(expected[0].splitlines()) == 501
        cases = itertools.count()

        class Sizes:
            """Chunk sizes that read_chunks takes one at a time, as it reads CHUNK_ROWS."""

            def __init__(self, sizes):
                self.sizes = itertools.cycle(sizes)

            def __index__(self):
                return next(self.sizes)

        @settings(max_examples=20, deadline=None, database=None)
        @given(st.lists(st.integers(1, 130), min_size=1, max_size=6))
        def check(sizes):
            out = tmp_path / str(next(cases))
            monkeypatch.setattr(core, "CHUNK_ROWS", Sizes(sizes))
            chunked = runner.invoke(main, args + ["--production", "-", "--out-dir", str(out)], input=prod.read_text())
            assert chunked.exit_code == 2, chunked.output
            assert [(out / name).read_bytes() for name in ("trajectory.csv", "monitor.json")] == expected, sizes

        check()

    def test_one_scoring_call_per_chunk(self, runner, tmp_path, monkeypatch):
        src = _knn_source(tmp_path / "src.csv")
        features = np.random.default_rng(6).random((20, 2))
        prod = tmp_path / "prod.csv"
        args = ["monitor", "--source", str(src), "--production", str(prod), "--out-dir", str(tmp_path / "out")]
        batches = []
        scorer = cli.predict
        monkeypatch.setattr(cli, "predict", lambda model, x: batches.append(len(x)) or scorer(model, x))
        monkeypatch.setattr(core, "CHUNK_ROWS", 7)
        write_dataset(prod, Dataset(features))
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 2), result.output
        assert batches == [7, 7, 6]
        # event t=10 is the third row of the second chunk; its error names
        # the event, not the row's index in its chunk
        features[9, 0] = 1e200
        write_dataset(prod, Dataset(features))
        batches.clear()
        result = runner.invoke(main, args)
        _assert_one_line_error(result, "production event t=10: k-NN query: feature f0 = 1e+200", "not finite")
        assert "row" not in result.output
        assert batches == [7, 7]

    @pytest.mark.parametrize("header", [["f0"], ["f0", "f1", "f2", "f3", "f4"]])
    def test_feature_count_other_than_the_source_is_a_stream_error(self, runner, tmp_path, header):
        # a header that does not fit the source is no one event's fault,
        # and is refused with no row after it too
        for n in (60, 0):
            result = self._monitor_knn_rows(runner, tmp_path, header, n)
            _assert_one_line_error(
                result, "production stream:", f"dimension {len(header)} ", "dimension 4"
            )
            assert "event" not in result.output

    def test_memory_is_flat_over_stream_length(self, runner, tmp_path):
        # a long run holds one chunk of rows at a time: ten times the
        # stream, 49 chunks of CHUNK_ROWS lines against 5, peaks alike
        src = _scored_source(tmp_path / "src.csv")
        rng = np.random.default_rng(7)
        peaks = []
        for n in (5_000, 50_000):
            prod = tmp_path / f"prod{n}.csv"
            cells = rng.integers(0, 1000, size=(n, 3)) / 1000
            cells[:, 2] *= 0.5  # the source's score range
            np.savetxt(prod, cells, fmt="%.4f", delimiter=",", header="f0,f1,score", comments="")
            args = ["monitor", "--source", str(src), "--production", str(prod), "--out-dir", str(tmp_path / f"o{n}")]
            tracemalloc.start()
            try:
                result = runner.invoke(main, args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.exit_code in (0, 2), result.output
            assert len((tmp_path / f"o{n}" / "trajectory.csv").read_text().splitlines()) == n + 1
        assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks

    def test_byte_order_marks_are_dropped(self, runner, tmp_path):
        # a UTF-8 BOM before the source and production headers and the
        # config file's first key: the same bytes out as without one
        src = _knn_source(tmp_path / "src.csv")
        rng = np.random.default_rng(8)
        prod = tmp_path / "prod.csv"
        write_dataset(prod, Dataset(rng.random((300, 2))))
        outputs = []
        for bom in ("", "\ufeff"):
            source = tmp_path / f"src{len(bom)}.csv"
            source.write_text(bom + src.read_text(), newline="")
            config = tmp_path / f"monitor{len(bom)}.cfg"
            config.write_text(f"{bom}source = {source}\nk = 7\n")
            out = tmp_path / f"out{len(bom)}"
            args = ["monitor", "--config", str(config), "--production", "-", "--out-dir", str(out)]
            result = runner.invoke(main, args, input=bom + prod.read_text())
            assert result.exit_code in (0, 2), result.output
            outputs.append((result.exit_code, (out / "trajectory.csv").read_bytes(), (out / "monitor.json").read_bytes()))
        assert outputs[0] == outputs[1]


def _rewritten(text, order, crlf, blank):
    """``text``, a CSV of plain cells with one row a line, with its error
    and score columns where the permutation ``order`` of its columns puts
    them (the feature columns keep their order, f0 first, as a header
    must), its lines ended by CRLF or LF, and a blank line after each when
    ``blank``."""
    end = ("\r\n" if crlf else "\n") * (1 + blank)
    rows = [line.split(",") for line in text.splitlines()]
    features = iter(sorted(i for i in order if rows[0][i].startswith("f")))
    order = [next(features) if rows[0][i].startswith("f") else i for i in order]
    return "".join(",".join(row[i] for i in order) + end for row in rows)


class TestIngestRewrites:
    """calibrate and monitor write the same bytes when the source and
    production CSVs are rewritten without changing their data: columns in
    a drawn order, CRLF line ends, blank lines."""

    @pytest.mark.parametrize("scored", [True, False], ids=["scored", "knn"])
    def test_outputs_do_not_move(self, runner, tmp_path, scored):
        rng = np.random.default_rng(9)
        features = rng.random((600, 2))
        errors = 0.9 * features[:, 0]
        prod_features = rng.random((500, 2))
        prod_features[100:, 0] = 0.9 + 0.1 * prod_features[100:, 0]
        if scored:
            source = Dataset(features, errors, errors + rng.normal(0.0, 0.02, 600))
            prod = Dataset(prod_features, None, 0.9 * prod_features[:, 0])
        else:
            source, prod = Dataset(features, errors), Dataset(prod_features)
        write_dataset(tmp_path / "src.csv", source)
        write_dataset(tmp_path / "prod.csv", prod)
        # write_dataset ends its lines with CRLF; the plain form ends them with LF
        plain = {name: (tmp_path / name).read_text().replace("\r\n", "\n") for name in ("src.csv", "prod.csv")}
        widths = [text.split("\n", 1)[0].count(",") + 1 for text in plain.values()]
        cases = itertools.count()

        def outputs(texts):
            here = tmp_path / str(next(cases))
            here.mkdir()
            for name, text in zip(plain, texts):
                (here / name).write_bytes(text.encode())
            codes = []
            for command, extra in (("calibrate", []), ("monitor", ["--production", str(here / "prod.csv")])):
                args = [command, "--source", str(here / "src.csv"), "--out-dir", str(here / command), *extra]
                codes.append(runner.invoke(main, args).exit_code)
            files = sorted((here / "calibrate").iterdir()) + sorted((here / "monitor").iterdir())
            return codes, [(f.name, f.read_bytes()) for f in files]

        expected = outputs(plain.values())
        assert expected[0] == [0, 2]  # the monitor alarms
        assert [name for name, _ in expected[1]] == ["grid_report.csv", "selector.json", "monitor.json", "trajectory.csv"]

        @settings(max_examples=25, deadline=None, database=None)
        @given(
            orders=st.tuples(*(st.permutations(range(width)) for width in widths)),
            crlf=st.booleans(),
            blank=st.booleans(),
        )
        @example(orders=tuple(list(range(width))[::-1] for width in widths), crlf=True, blank=True)  # labels first
        def check(orders, crlf, blank):
            texts = [_rewritten(text, order, crlf, blank) for text, order in zip(plain.values(), orders)]
            assert outputs(texts) == expected, (orders, crlf, blank)

        check()


class TestUnreadableFiles:
    """A directory, or a file that is not UTF-8, given as an input is an
    error of one line."""

    @pytest.fixture
    def inputs(self, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        undecodable = tmp_path / "bad.csv"
        undecodable.write_bytes(src.read_bytes() + b"0.5,0.5,0.2\xff\n")
        bad_config = tmp_path / "bad.cfg"
        bad_config.write_bytes(b"k = 5\xff\n")
        (tmp_path / "dir").mkdir()
        return src, undecodable, bad_config, tmp_path / "dir"

    def test_source(self, runner, tmp_path, inputs):
        _, undecodable, _, directory = inputs
        for path in (directory, undecodable):
            result = runner.invoke(main, ["calibrate", "--source", str(path), "--out-dir", str(tmp_path / "o")])
            _assert_one_line_error(result, "cannot read")

    def test_production(self, runner, tmp_path, inputs):
        src, undecodable, _, directory = inputs
        for path in (directory, undecodable):
            result = runner.invoke(
                main, ["monitor", "--source", str(src), "--production", str(path), "--out-dir", str(tmp_path / "o")]
            )
            _assert_one_line_error(result, "production stream", "cannot read")

    def test_config(self, runner, tmp_path, inputs):
        src, _, bad_config, directory = inputs
        for path in (directory, bad_config):
            result = runner.invoke(main, ["calibrate", "--config", str(path), "--source", str(src)])
            _assert_one_line_error(result, "config", "cannot read")


_FUZZ_CELLS = ["", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "abc", '"0.5"', "2", "-0.5", " 0.5", "0x10"]
_FUZZ_HEADERS = ["f0", "f1", "f2", "error", "score", "F0", "", "err or"]
# Config lines that leave a run going, and lines each command refuses. A
# suite is tiny (horizon 1 or 20, at most 2 seeds) or one the size check
# refuses (horizon 1e15, or 1e12 seeds): no case allocates much.
_FUZZ_CONFIG = ["onset = 5", "n_seeds = 2", "k = 3", "eps_tol = 0.01", "alpha_prod = 0.5", "schedule = sigmoid",
                "schedule = none", "feature_kinds = continuous,categorical", "# comment", ""]
_FUZZ_BAD_CONFIG = [
    "onset = 1e308", "n_seeds = 1000000000000", "k = 0", "seed = -1", "fdp_max = 1e308", "fdp_max = nan",
    "eps_tol = inf", "ablation_fraction = 1e-308", "p_values = 0.9, 0.5", "horizon = 1", "no equals sign",
    "unknown = 1",
]
_FUZZ_OUTPUTS = ["grid_report.csv", "selector.json", "trajectory.csv", "monitor.json", "scenarios.json",
                 "stream_f0_above_median.csv", "metrics.json", "runs.json"]


def _sometimes(draw, odds=4):
    return draw(st.integers(0, odds - 1)) == 0


@st.composite
def _text(draw, lines):
    """The text of ``lines``, with CRLF line endings, a byte-order mark or
    truncation drawn."""
    newline = "\r\n" if _sometimes(draw) else "\n"
    text = ("\ufeff" if _sometimes(draw) else "") + "".join(line + newline for line in lines)
    return text[: draw(st.integers(0, len(text)))] if _sometimes(draw, 6) else text


@st.composite
def _config(draw):
    """A config file's text: a horizon, settings a run takes, sometimes one
    it refuses, and the mutations of ``_text``."""
    horizon = draw(st.sampled_from([20, 20, 20, 1, 10**15]))
    lines = [f"horizon = {horizon}", *draw(st.lists(st.sampled_from(_FUZZ_CONFIG), max_size=2, unique=True))]
    if _sometimes(draw):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_FUZZ_BAD_CONFIG)))
    return draw(_text(lines))


@st.composite
def _csv(draw, rows):
    """A small CSV table's text after drawn mutations: cells and header
    names, an extra column (a repeated ``error`` among them), and those of
    ``_text``."""
    rows = [list(row) for row in rows]
    for _ in range(max(0, draw(st.integers(0, 4)) - 2)):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(_FUZZ_HEADERS if i == 0 else _FUZZ_CELLS))
    if _sometimes(draw):
        name = draw(st.sampled_from(["error", "score", "f2"]))
        rows = [row + [name if i == 0 else row[-1]] for i, row in enumerate(rows)]
    return draw(_text([",".join(row) for row in rows]))


def test_file_fuzz(runner, tmp_path):
    """Mutated source, production and config files through calibrate,
    monitor, simulate and evaluate, with an output path that may be a
    directory: every outcome is exit 0, 1 or 2, exit 1 prints exactly one
    Error: line, exit 2 only reports an alarm, and nothing but SystemExit
    escapes."""
    rng = np.random.default_rng(11)
    features = rng.random((40, 2)).round(4).tolist()
    source = [["f0", "f1", "error"]] + [[repr(a), repr(b), repr(round(0.9 * a, 4))] for a, b in features]
    production = [["f0", "f1"]] + [[repr(a), repr(b)] for a, b in rng.random((30, 2)).round(4).tolist()]
    cases = itertools.count()

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        command=st.sampled_from(["calibrate", "monitor", "simulate", "evaluate"]),
        source_text=_csv(source),
        production_text=_csv(production),
        stdin=st.booleans(),
        config_text=_config(),
        directory=st.sampled_from([None, None, None, *_FUZZ_OUTPUTS]),
    )
    def check(command, source_text, production_text, stdin, config_text, directory):
        here = tmp_path / str(next(cases))
        out = here / "out"
        (out / (directory or "")).mkdir(parents=True)
        paths = {name: here / name for name in ("src.csv", "prod.csv", "c.cfg")}
        for path, text in zip(paths.values(), (source_text, production_text, config_text)):
            path.write_bytes(text.encode())
        args = [command, "--source", str(paths["src.csv"]), "--config", str(paths["c.cfg"]), "--out-dir", str(out)]
        if command == "monitor":
            args += ["--production", "-" if stdin else str(paths["prod.csv"])]
        result = runner.invoke(main, args, input=production_text if stdin else None)
        report = (args, result.output, result.exception)
        assert result.exit_code in (0, 1, 2), report
        assert result.exception is None or isinstance(result.exception, SystemExit), report
        assert result.exit_code != 2 or result.output.startswith("ALARM"), report
        if result.exit_code == 1:
            lines = result.output.splitlines()
            assert len(lines) == 1 and lines[0].startswith("Error: "), report

    check()


def _run_slope(d, kind):
    """run_experiment's traced peak growth a step, from horizon 10,000 to
    40,000, on a 2,000-row source of ``d`` features that each tell the
    error, under a ``kind`` schedule."""
    rng = np.random.default_rng(0)
    features = rng.random((2000, d))
    features[:, 1:] = features[:, :1] + 0.01 * features[:, 1:]  # every feature tells the error
    source = Dataset(features, np.where(features[:, 0] > 0.7, 0.6, 0.1) + 0.1 * rng.random(2000))
    peaks = []
    for horizon in (10_000, 40_000):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            schedule = Schedule(kind, horizon)
            report = run_experiment(source, ShiftScenario(0, "above_median"), schedule, ExperimentConfig(), 1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert not report.uncalibratable
    return (peaks[1] - peaks[0]) / 30_000


def _simulate_slope(runner, tmp_path, d, kind, horizons):
    """simulate's traced peak growth a step between two ``horizons`` on a
    2,000-row source of ``d`` categorical features, under a ``kind``
    schedule. f0 is 1 on about 600 rows and 0 on the rest, and every other
    feature one value, a category of every row, so the source has one
    scenario, f0's category 1."""
    features = np.zeros((2000, d)) + np.arange(d)
    features[:, 0] = np.random.default_rng(0).random(2000) < 0.3
    tmp_path.mkdir(exist_ok=True)
    src = tmp_path / "src.csv"
    write_dataset(src, Dataset(features, 0.5 * features[:, 0]))
    kinds = ["--feature-kinds", ",".join(["categorical"] * d), "--schedule", kind]
    peaks = []
    for horizon in horizons:
        out = tmp_path / f"o{horizon}"
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["simulate", "--source", str(src), "--out-dir", str(out),
                                          "--horizon", str(horizon), *kinds])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert [p.name for p in out.glob("stream_*.csv")] == ["stream_f0_category_1.csv"]
    return (peaks[1] - peaks[0]) / (horizons[1] - horizons[0])


class TestPackageErrors:
    def test_constant_source_errors_are_one_line(self, runner, tmp_path):
        """R^2 of a constant target is undefined: every command that fits
        the estimator stops with exit code 1 and one line."""
        src = tmp_path / "src.csv"
        rng = np.random.default_rng(6)
        write_dataset(src, Dataset(rng.random((200, 2)), np.full(200, 0.5)))
        prod = tmp_path / "prod.csv"
        write_dataset(prod, Dataset(rng.random((20, 2))))
        common = ["--source", str(src), "--out-dir", str(tmp_path / "out")]
        for args in (
            ["calibrate"],
            ["monitor", "--production", str(prod)],
            ["evaluate", "--horizon", "50", "--onset", "10"],
        ):
            result = runner.invoke(main, args + common)
            assert result.exit_code == 1, (args, result.output)
            assert isinstance(result.exception, SystemExit), args
            lines = result.output.strip().splitlines()
            assert lines == ["Error: R^2 is undefined for a constant target"], args
            assert not (tmp_path / "out").exists(), args

    def test_degenerate_run_does_not_stop_the_suite(self, runner, tmp_path):
        """A run whose calibration half has all errors equal has no R^2 and
        no qualifying grid cell: it is one uncalibratable run with r2 null,
        where it used to stop the whole suite with the R^2 error."""
        rng = np.random.default_rng(3)
        errors = np.zeros(300)
        errors[rng.choice(300, 6, replace=False)] = 1.0  # 2% 0/1 errors
        src = tmp_path / "src.csv"
        write_dataset(src, Dataset(rng.random((300, 2)), errors))
        out = tmp_path / "out"
        args = ["evaluate", "--source", str(src), "--out-dir", str(out), "--horizon", "50", "--onset", "10"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        runs = json.loads((out / "runs.json").read_text())["runs"]
        assert [run["uncalibratable"] for run in runs] == [True] * 4
        assert [run["r2"] is None for run in runs] == [False, False, False, True]
        assert json.loads((out / "metrics.json").read_text())["n_uncalibratable"] == 4

    @pytest.mark.parametrize("command", ["calibrate", "monitor", "simulate", "evaluate", "sweep"])
    def test_missing_source_leaves_no_out_dir(self, runner, tmp_path, command):
        """Every command reads and checks its inputs before it creates
        --out-dir, so a run that fails on its input leaves nothing behind."""
        out = tmp_path / "out"
        args = [command, "--out-dir", str(out)]
        if command == "monitor":
            args += ["--production", str(_scored_source(tmp_path / "prod.csv"))]
        _assert_one_line_error(runner.invoke(main, args), "source")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "monitor", "simulate", "evaluate", "sweep"])
    def test_out_dir_that_is_a_file(self, runner, tmp_path, command):
        src = _scored_source(tmp_path / "src.csv")
        out = tmp_path / "out"
        out.write_text("")
        args = [command, "--source", str(src), "--out-dir", str(out)]
        if command == "monitor":
            args += ["--production", str(src)]
        elif command != "calibrate":
            args += ["--horizon", "50", "--onset", "10"]
        _assert_one_line_error(runner.invoke(main, args), "out_dir", "cannot create directory")

    @pytest.mark.parametrize(
        "command, output",
        [("calibrate", "grid_report.csv"), ("monitor", "trajectory.csv"), ("simulate", "stream_f0_above_median.csv"),
         ("evaluate", "metrics.json"), ("sweep", "sweep.json")],
    )
    def test_output_that_cannot_be_written(self, runner, tmp_path, command, output):
        """An output path that is a directory stops the command with one
        Error: line naming the file, never a traceback."""
        src = _scored_source(tmp_path / "src.csv")
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        args = [command, "--source", str(src), "--out-dir", str(out)]
        if command == "monitor":
            args += ["--production", str(src)]
        elif command != "calibrate":
            args += ["--horizon", "50", "--onset", "10"]
        _assert_one_line_error(runner.invoke(main, args), f"{out / output}")

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_out_dir_is_checked_before_the_suite_runs(self, runner, tmp_path, monkeypatch, command):
        calls = []
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        out.write_text("")
        args = [command, "--source", str(_scored_source(tmp_path / "src.csv")), "--out-dir", str(out)]
        _assert_one_line_error(runner.invoke(main, args), "out_dir", "cannot create directory")
        assert calls == []

    def test_failed_suite_removes_only_the_directories_it_made(self, runner, tmp_path, monkeypatch):
        existed = []

        def failing_suite(*args, **kwargs):
            existed.append(out.is_dir())
            raise DegenerateError("suite failed")

        monkeypatch.setattr(cli, "run_suite", failing_suite)
        src = str(_scored_source(tmp_path / "src.csv"))
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "made" / "out", tmp_path / "kept"):
            result = runner.invoke(main, ["evaluate", "--source", src, "--out-dir", str(out)])
            _assert_one_line_error(result, "suite failed")
        assert existed == [True, True]
        assert not (tmp_path / "made").exists()
        assert (tmp_path / "kept").is_dir()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_suite_without_a_scenario_leaves_no_out_dir(self, runner, tmp_path, command):
        """15 rows admit no split (a median side excludes at most 6), so the
        suite stops on its input, before --out-dir is made."""
        src = tmp_path / "src.csv"
        rng = np.random.default_rng(4)
        write_dataset(src, Dataset(rng.random((15, 2)), rng.random(15)))
        out = tmp_path / "out"
        args = [command, "--source", str(src), "--out-dir", str(out), "--horizon", "50"]
        _assert_one_line_error(runner.invoke(main, args), "no feature split excludes between 10 and n/2 = 7")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, horizon, seed_bytes",
        [
            ("evaluate", "horizon", None, None),
            ("sweep", "horizon", None, None),
            ("simulate", "horizon", None, None),
            ("evaluate", "n_seeds", 1000, 8 * 6 * 1000 + 10_240),
            ("sweep", "n_seeds", 1000, 8 * 6 * 1000 + 10_240),
            ("evaluate", "n_seeds", 1, 8 * 6 + 10_240),
            # the source's 4 scenarios x n_seeds runs fill half of memory at
            # 512 bytes a run, the term evaluate was measured to exceed
            ("evaluate", "n_seeds", 1, 2 * 4 * (8 * 6 + 512)),
        ],
        ids=["evaluate-horizon", "sweep-horizon", "simulate-horizon", "evaluate-n_seeds", "sweep-n_seeds",
             "evaluate-n_seeds-horizon-1", "evaluate-n_seeds-old-estimate"],
    )
    def test_suite_larger_than_memory_is_refused_before_allocating(
        self, runner, tmp_path, monkeypatch, command, key, horizon, seed_bytes
    ):
        """One run in flight alone passes physical memory, or each run
        fits but n_seeds runs' margins (6 x horizon float64s each) do not,
        or at horizon 1 their fixed 10 KiB each do not: one Error: line
        under the key, no --out-dir, and nothing large allocated. The suite
        never starts."""

        def refused(*args, **kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", refused)
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if key == "horizon":
            sizes = ["--horizon", str(memory // 8)]
        else:
            sizes = ["--horizon", str(horizon), "--n-seeds", str(memory // seed_bytes + 1)]
        out = tmp_path / "made" / "out"
        args = [command, "--source", str(_scored_source(tmp_path / "src.csv")), "--out-dir", str(out), *sizes]
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_one_line_error(result, f"Error: {key}: ", "GiB of physical memory")
        assert not (tmp_path / "made").exists()
        assert peak < 10_000_000, peak

    @pytest.mark.parametrize("horizon", [3_000, 70_000])
    def test_a_record_at_every_step_fits_the_size_check(self, monkeypatch, horizon):
        """A report whose four margin bases rise at every step, recorded as
        run_experiment records them, holds no more array bytes than
        _check_sizes counts for one report beside its fixed 10 KiB; at
        70,000 steps the step index takes 4 bytes."""
        steps = np.arange(horizon, dtype=float)
        records = record_margins((
            (steps / horizon, {"plugin_q": 0.25, "plugin_q2": 0.125}),
            (steps / horizon + 0.5, {"oracle_q": 0.25, "oracle_q2": 0.125}),
            (steps, {"plugin_mean": 0.5}),
            (steps + 1.0, {"oracle_mean": 0.5}),
        ))
        bases = {id(held): held for held, _ in records.values()}.values()
        assert len(bases) == 4 and all(held.steps.size == horizon for held in bases)
        held_bytes = sum(held.steps.nbytes + held.values.nbytes for held in bases)
        # physical memory one byte short of a run in flight, 192 bytes a
        # step, and 1,000 runs of these arrays and 10 KiB each: the suite
        # is refused
        runs = 1000
        memory = 192 * horizon + runs * (held_bytes + 10 * 1024) - 1
        monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else memory)
        with pytest.raises(ConfigError, match="n_seeds: 1000 runs"):
            cli._check_sizes(horizon, runs)

    @pytest.mark.parametrize("d, kind", [(3, "sudden"), (40, "sigmoid")])
    def test_a_run_in_flight_fits_the_size_check(self, monkeypatch, d, kind):
        """run_experiment's traced peak grows by less a step than
        _check_sizes counts for one run and its report: physical memory of
        the measured growth over 10^9 steps refuses the run. At 3 and at 40
        features the peak comes while the last mean detector's path is
        built."""
        memory = int(_run_slope(d, kind) * 10**9)
        monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else memory)
        with pytest.raises(ConfigError, match="horizon: one run of 1000000000 events"):
            cli._check_sizes(10**9, 1)

    def test_a_run_in_flight_does_not_grow_with_the_features(self):
        """A run holds its stream as source row indices and copies only its
        distinct rows, so at 80 features its peak grows by less than the
        192 bytes a step that _check_sizes counts whatever the feature
        count; it grew by 692 when the stream was a copy of its rows."""
        assert _run_slope(80, "sudden") < 192

    def test_simulate_fits_the_size_check(self, runner, tmp_path, monkeypatch):
        """simulate builds and writes one stream at a time, so its traced
        peak grows by less a step than _check_sizes counts for a stream,
        under each schedule: from horizon 20,000 to 80,000, where drawing
        the stream sets the peak, it grew by 25, 29 and 37 bytes under
        none, sudden and sigmoid."""
        for kind in ("none", "sudden", "sigmoid"):
            memory = int(_simulate_slope(runner, tmp_path / kind, 1, kind, (20_000, 80_000)) * 10**9)
            monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else memory)
            with pytest.raises(ConfigError, match="horizon: one run of 1000000000 events"):
                cli._check_sizes(10**9, 0)

    def test_simulate_does_not_grow_with_the_features(self, runner, tmp_path):
        """simulate gathers a stream's rows a block at a time as it writes
        them, so at 80 features its peak grows by less than the 64 bytes a
        step that _check_sizes counts for a stream, from horizon 2,500 to
        10,000; it grew by 646 when it gathered each stream's rows whole."""
        assert _simulate_slope(runner, tmp_path, 80, "sudden", (2_500, 10_000)) < 64

    def test_each_run_in_flight_is_counted(self, monkeypatch):
        """A suite holds min(workers, runs, usable CPUs) runs in flight, 192
        bytes a step each, beside every run's report."""
        horizon, runs = 1000, 5
        report = 6 * 8 * horizon + 10 * 1024
        monkeypatch.setattr(cli, "usable_cpus", lambda: 4)
        for workers, in_flight in ((1, 1), (3, 3), (8, 4)):
            memory = in_flight * 192 * horizon + runs * report
            for spare, fits in ((0, True), (-1, False)):
                monkeypatch.setattr(os, "sysconf", lambda name: 1 if name == "SC_PAGE_SIZE" else memory + spare)
                if fits:
                    cli._check_sizes(horizon, runs, workers)
                else:
                    with pytest.raises(ConfigError, match="n_seeds: 5 runs"):
                        cli._check_sizes(horizon, runs, workers)

    def test_empty_sweep_grid_is_config_error(self, runner, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        result = runner.invoke(
            main, ["sweep", "--source", str(src), "--out-dir", str(tmp_path / "o"), "--eps-tol-grid", ","]
        )
        assert result.exit_code == 1, result.output
        assert result.output.strip().splitlines() == ["Error: eps_tol_grid: must list at least one value"]


def _flag(key):
    """The flag of a configuration key (README, "Command line")."""
    return {"config_file": "--config", "k": "-k"}.get(key, "--" + key.replace("_", "-"))


class TestFlags:
    """Each command takes flags only for the configuration keys it reads,
    and parses their values as it parses config file values. A usage error
    is one Error: line and exit code 1: exit code 2 is the alarm's."""

    @pytest.mark.parametrize(
        "args",
        [
            ["calibrate", "--eps-tol", "0.1"],
            ["calibrate", "--alpha-prod", "0.3"],
            ["simulate", "-k", "3"],
            ["simulate", "--fdp-max", "0.1"],
            ["sweep", "--eps-tol", "0.1"],
        ],
        ids=" ".join,
    )
    def test_unread_flag_is_no_option(self, runner, args):
        _assert_one_line_error(runner.invoke(main, args), "unrecognized arguments", args[1])

    @pytest.mark.parametrize(
        "args, word",
        [
            (["calibrate", "--sourc", "src.csv"], "--sourc"),
            (["calibrate", "--sourc=src.csv"], "--sourc=src.csv"),
            (["monitor", "--no-such-flag", "1"], "--no-such-flag"),
            (["calibrate", "--source"], "--source"),
            (["monitor", "--source", "src.csv", "-k"], "-k"),
            (["nosuch"], "'nosuch'"),
            (["calib"], "'calib'"),
            ([], "COMMAND"),
            (["--source", "src.csv"], "--source"),
            (["-k", "3", "calibrate"], "-k"),
            (["calibrate", "extra"], "extra"),
            (["evaluate", "--source", "src.csv", "extra"], "extra"),
        ],
        ids=["abbreviated", "abbreviated=", "unknown", "no-value", "no-value-k", "unknown-command",
             "abbreviated-command", "no-command", "flag-before-command", "k-before-command", "extra",
             "extra-after-flag"],
    )
    def test_usage_error_is_one_line(self, runner, tmp_path, monkeypatch, args, word):
        monkeypatch.chdir(tmp_path)
        _assert_one_line_error(runner.invoke(main, args), word)
        assert list(tmp_path.iterdir()) == []

    def test_value_forms(self, runner, monkeypatch):
        """--flag VALUE and --flag=VALUE set the same value, the last one
        given wins, and a flag takes the next word whatever it starts with."""
        seen = []

        def recorded(config_file, **flags):
            seen.append(dict(flags, config_file=config_file))
            raise ConfigError("recorded")

        monkeypatch.setattr(cli, "parse_config", recorded)
        for args in (
            ["sweep", "--source", "-", "--eps-tol-grid", "-5,nan", "-k", "-3", "--config", "--seed"],
            ["sweep", "--source=-", "--eps-tol-grid=-5,nan", "-k=-3", "--config=--seed"],
            ["sweep", "--source", "a", "-k", "2", "--eps-tol-grid", "0", "--source", "-", "-k-3",
             "--eps-tol-grid=-5,nan", "--config", "x", "--config", "--seed"],
        ):
            _assert_one_line_error(runner.invoke(main, args), "Error: recorded")
        expected = dict.fromkeys(cli._COMMANDS["sweep"][1].split())
        expected.update(source="-", eps_tol_grid="-5,nan", k="-3", config_file="--seed")
        assert seen == [expected] * 3

    def test_help(self, runner):
        """--help exits 0 at either level: the top level lists the commands,
        a command lists its flags with their help texts."""
        result = runner.invoke(main, ["--help"])
        assert (result.exit_code, result.exception) == (0, None)
        assert all(f"    {name}" in result.output for name in cli._COMMANDS), result.output
        for name, (_, keys) in cli._COMMANDS.items():
            result = runner.invoke(main, [name, "--help"])
            assert (result.exit_code, result.exception) == (0, None)
            text = " ".join(result.output.split())
            for key in ["config_file", *keys.split()]:
                assert f"{_flag(key)} {key.upper()}" in text
                assert cli._HELP.get(key, "") in text

    def test_interrupted_run_exits_one(self, runner, monkeypatch):
        def interrupted(config_file, **flags):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "parse_config", interrupted)
        result = runner.invoke(main, ["monitor"])
        assert (result.exit_code, result.output) == (1, "\nAborted!\n")

    def test_malformed_value_is_one_line(self, runner, tmp_path):
        src = _scored_source(tmp_path / "src.csv")
        result = runner.invoke(main, ["calibrate", "--source", str(src), "--seed", "abc"])
        _assert_one_line_error(result, "seed: cannot parse value 'abc'")
        assert not (tmp_path / "out").exists()

    def test_argv_fuzz(self, runner, tmp_path, monkeypatch):
        """Command lines drawn from each command's flags, other spellings
        and awkward values: every outcome is exit 0, 1 or 2, exit 1 prints
        exactly one Error: line, exit 2 only reports an alarm, nothing but
        SystemExit escapes, and no command gets far enough to write a
        file."""
        monkeypatch.chdir(tmp_path)
        flags = sorted({_flag(key) for _, keys in cli._COMMANDS.values() for key in ["config_file", *keys.split()]})
        others = ["--sourc", "--out", "--no-such-flag", "-x", "-k", "--x=", "--source=", "-k=", "--", "--help"]
        values = ["", "-", "-5,nan", "=", "--source", "-k", "0", "3", "-1", "0.5,2", "nope.csv", "no/such/dir"]
        words = st.lists(st.sampled_from(flags + others + values), max_size=6)
        command = st.sampled_from(list(cli._COMMANDS) + ["nosuch", "calib", "", "-k", "--help"])

        @settings(max_examples=150, deadline=None, database=None)
        @given(argv=st.tuples(command, words).map(lambda drawn: [drawn[0], *drawn[1]]) | words)
        def check(argv):
            result = runner.invoke(main, argv)
            assert result.exit_code in (0, 1, 2), (argv, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit), (argv, result.exception)
            assert result.exit_code != 2 or result.output.startswith("ALARM"), (argv, result.output)
            if result.exit_code == 1:
                lines = result.output.splitlines()
                assert len(lines) == 1 and lines[0].startswith("Error: "), (argv, result.output)

        check()
        assert list(tmp_path.iterdir()) == []


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trace_cli(spans_path, args):
    """Run perfbench/trace_cli.py on the package in src/ in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(spans_path)] + args,
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_tracer_finds_every_name_it_wraps(tmp_path):
    """perfbench/trace_cli.py wraps package functions by name; renaming
    one of them breaks its start-up, which ``--help`` exercises."""
    proc = _trace_cli(tmp_path / "spans.json", ["--help"])
    assert proc.returncode == 0, proc.stderr
    assert "monitor" in proc.stdout


def test_tracer_wraps_names_their_modules_call():
    """perfbench/trace_cli.py times a layer by wrapping a name in the module
    that looks it up, so each wrapped (module, name) must be called as
    ``name(...)`` in src/shiftwatch/<module>.py, and a wrapped method must
    be defined by its class: a call moved to another module would leave
    its layer untimed though the tracer still starts."""
    tracer = ast.parse((ROOT / "perfbench" / "trace_cli.py").read_text())
    (install,) = (node for node in ast.walk(tracer) if isinstance(node, ast.FunctionDef) and node.name == "install")
    loops = {node.target.id: [owner.id for owner in node.iter.elts] for node in ast.walk(install) if isinstance(node, ast.For)}
    wrapped = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "w":
            owner, name = node.args[0], node.args[1].value
            if isinstance(owner, ast.Attribute):  # a class of the module: monitor.MonitorState
                wrapped.add((owner.value.id, (owner.attr, name)))
            else:
                wrapped.update((module, name) for module in loops.get(owner.id, [owner.id]))
    assert len(wrapped) == 27  # every wrap was read

    missing = []
    for module, name in sorted(wrapped, key=str):
        tree = ast.parse((ROOT / "src" / "shiftwatch" / f"{module}.py").read_text())
        calls = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        methods = {
            (node.name, item.name)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
        }
        if name not in (methods if isinstance(name, tuple) else calls):
            missing.append((module, name))
    assert missing == []


def test_start_up_imports_no_worker_processes():
    """Only ``--workers`` > 1 starts worker processes, so importing the CLI
    leaves multiprocessing out of every command's start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys, shiftwatch.cli; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_start_up_generates_no_dataclass_code():
    """The package's value types are NamedTuples and plain classes, so
    importing the CLI never loads ``dataclasses``, whose decorators
    generate and compile each type's methods at every start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys, shiftwatch.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_command_freezes_the_loaded_modules(tmp_path):
    """``main`` moves the objects of the loaded modules out of the cyclic
    collector's reach, so the collections at the interpreter's exit skip
    them; the command's output is written as before."""
    src = _scored_source(tmp_path / "src.csv")
    args = ["calibrate", "--source", str(src), "--out-dir", str(tmp_path / "out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import gc; from shiftwatch.cli import main\n"
        f"before = gc.get_freeze_count()\nmain({args!r})\n"
        "print(before, gc.get_freeze_count() > 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True", proc.stdout
    assert (tmp_path / "out" / "selector.json").is_file()


def test_evaluate_with_category_splits_never_imports_numpy_ma(tmp_path):
    """numpy's ``np.unique`` imports ``numpy.ma`` for its masked-array
    check; no command needs masked arrays, so a suite with category splits
    leaves the module out."""
    from shiftwatch.shiftsim import make_subgroup_dataset, subgroup_feature_kinds

    keywords = dict(n_noise_features=1, immune_frac=0.2, seed=3)
    write_dataset(tmp_path / "src.csv", make_subgroup_dataset(300, **keywords))
    args = ["evaluate", "--source", str(tmp_path / "src.csv"), "--out-dir", str(tmp_path / "out"),
            "--horizon", "50", "--feature-kinds", ",".join(subgroup_feature_kinds(**keywords))]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import sys; from shiftwatch.cli import main\n"
        f"try:\n    main({args!r})\nexcept SystemExit:\n    pass\n"
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "category" in (tmp_path / "out" / "runs.json").read_text()
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["monitor", "evaluate"])
def test_commands_run_without_click(tmp_path, command):
    """The command line parses with the standard library: a command run
    in its own process leaves click out of sys.modules."""
    src = _scored_source(tmp_path / "src.csv")
    args = [command, "--source", str(src), "--out-dir", str(tmp_path / "out")]
    args += ["--production", str(src)] if command == "monitor" else ["--horizon", "50", "--onset", "10"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import sys; from shiftwatch.cli import main\n"
        f"try:\n    main({args!r})\nexcept SystemExit as exc:\n    print(exc.code)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'click'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
    assert (tmp_path / "out").is_dir()


@pytest.mark.parametrize("command, expected", [("monitor", 2), ("evaluate", 0)])
def test_tracer_spans_are_benchmark_layers(tmp_path, command, expected):
    """perfbench/trace_cli.py runs each benchmarked command to its own exit
    code (2: the monitor's 200 highest-error rows raise an alarm) and writes
    only spans that perfbench/run.py files under a layer."""
    from shiftwatch.shiftsim import make_subgroup_dataset

    bench = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (layer_times,) = (
        ast.literal_eval(node.value)
        for node in bench.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_TIMES"]
    )
    layers = {name for names in layer_times.values() for name in names}

    source = make_subgroup_dataset(500, seed=9)
    write_dataset(tmp_path / "src.csv", source)
    args = [command, "--source", str(tmp_path / "src.csv"), "--out-dir", str(tmp_path / "out")]
    if command == "monitor":
        write_dataset(tmp_path / "prod.csv", Dataset(source.features[np.argsort(-source.errors)[:200]]))
        args += ["--production", str(tmp_path / "prod.csv")]
    else:
        args += ["--horizon", "100", "--onset", "50"]
    spans_path = tmp_path / "spans.json"
    proc = _trace_cli(spans_path, args)
    assert proc.returncode == expected, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    names = {span[0] for span in spans}
    assert names and names <= layers, sorted(names - layers)
    if command == "evaluate":
        # the suite feeds MonitorState's core, never observe: each run that
        # calibrates reaches pmeb_update once for the plug-in and once for the oracle
        calibrated = [i for i, span in enumerate(spans) if span[0] == "harness.run_experiment" and not span[4]]
        update_parents = [span[3] for span in spans if span[0] == "confidence.pmeb_update"]
        assert calibrated and "monitor.observe" not in names
        assert sorted(update_parents) == sorted(2 * calibrated)


class TestSimulateCommand:
    def test_writes_streams_and_index(self, runner, tmp_path):
        src = tmp_path / "src.csv"
        rng = np.random.default_rng(2)
        write_dataset(src, Dataset(rng.random((200, 2)), rng.random(200) * 0.9))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "simulate",
                "--source",
                str(src),
                "--out-dir",
                str(out),
                "--horizon",
                "50",
                "--schedule",
                "sudden",
                "--onset",
                "10",
            ],
        )
        assert result.exit_code == 0, result.output
        index = json.loads((out / "scenarios.json").read_text())
        assert len(index["scenarios"]) == 4  # two continuous features
        for entry in index["scenarios"]:
            assert (out / entry["stream_file"]).exists()

    def test_a_scored_source_writes_streams_that_monitor_replays(self, runner, tmp_path):
        """Each stream row is a whole source row, its score included, so a
        scored source's streams are production files that monitor accepts
        with that source, which asks for scores exactly when it has them."""
        src = _scored_source(tmp_path / "src.csv")
        out = tmp_path / "out"
        args = ["simulate", "--source", str(src), "--out-dir", str(out), "--horizon", "50", "--onset", "10"]
        assert runner.invoke(main, args).exit_code == 0

        def rows(data):
            return set(map(tuple, np.column_stack([data.features, data.errors, data.scores]).tolist()))

        source_rows = rows(read_dataset(src))
        streams = sorted(out.glob("stream_*.csv"))
        assert len(streams) == 4  # two continuous features
        for path in streams:
            stream = read_dataset(path)
            assert stream.n == 50 and rows(stream) <= source_rows
            args = ["monitor", "--source", str(src), "--production", str(path), "--out-dir", str(tmp_path / "m")]
            result = runner.invoke(main, args)
            assert result.exit_code in (0, 2), result.output

    def test_close_categories_write_one_stream_each(self, runner, tmp_path):
        """0.1234561 and 0.1234562 both print as 0.123456 under :g; each
        category's stream gets its own file and id."""
        rng = np.random.default_rng(5)
        f0 = np.repeat([0.1234561, 0.1234562, 0.5], 20)
        src = tmp_path / "src.csv"
        write_dataset(src, Dataset(np.column_stack([f0, rng.random(60)]), rng.random(60)))
        out = tmp_path / "out"
        args = ["simulate", "--source", str(src), "--out-dir", str(out), "--horizon", "20",
                "--feature-kinds", "categorical,continuous"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "wrote 5 scenario streams" in result.output
        index = json.loads((out / "scenarios.json").read_text())["scenarios"]
        ids = [entry["scenario_id"] for entry in index]
        assert ids[:2] == ["f0_category_0.1234561", "f0_category_0.1234562"]
        assert len(set(ids)) == 5
        assert len(list(out.glob("stream_*.csv"))) == 5

    def test_grid_keys_are_checked_though_simulate_does_not_calibrate(self, runner, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("p_values = 0.9, 0.5\n")
        out = tmp_path / "out"
        args = ["simulate", "--config", str(path), "--source", str(_scored_source(tmp_path / "src.csv")),
                "--out-dir", str(out), "--horizon", "50", "--onset", "10"]
        _assert_one_line_error(runner.invoke(main, args), "Error: p_values: must be strictly increasing")
        assert not out.exists()

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ("continuous,continuous", "expected 4 kinds, got 2"),
            ("continuous, ordinal, continuous, continuous", "unknown kind 'ordinal'"),
        ],
        ids=["count", "unknown"],
    )
    def test_bad_feature_kinds_are_one_line(self, runner, tmp_path, kinds, message):
        from shiftwatch.shiftsim import make_subgroup_dataset

        write_dataset(tmp_path / "src.csv", make_subgroup_dataset(200, seed=9))
        out = tmp_path / "out"
        args = ["simulate", "--source", str(tmp_path / "src.csv"), "--out-dir", str(out), "--feature-kinds", kinds]
        _assert_one_line_error(runner.invoke(main, args), f"Error: feature_kinds: {message}")
        assert not out.exists()


class TestSweepCommand:
    def test_rows_and_evaluate_agreement(self, runner, tmp_path):
        """2 tolerances x 2 harm thresholds x 3 detectors; the rows at
        eps_tol = eps_harm = 0 are evaluate's detectors for the same flags."""
        from shiftwatch.shiftsim import make_subgroup_dataset

        write_dataset(tmp_path / "src.csv", make_subgroup_dataset(500, seed=9))
        common = ["--source", str(tmp_path / "src.csv"), "--horizon", "300", "--onset", "80"]
        grids = ["--eps-tol-grid", "0,0.05", "--eps-harm-grid", "0,0.1"]
        result = runner.invoke(main, ["sweep", "--out-dir", str(tmp_path / "s")] + common + grids)
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["evaluate", "--out-dir", str(tmp_path / "e")] + common)
        assert result.exit_code == 0, result.output

        rows = json.loads((tmp_path / "s" / "sweep.json").read_text())["sweep"]
        with open(tmp_path / "s" / "sweep.csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(rows) == len(csv_rows) == 12
        assert [(r["eps_tol"], r["eps_harm"], r["detector"]) for r in rows] == [
            (t, h, d) for t in (0.0, 0.05) for h in (0.0, 0.1) for d in ("phi_q", "phi_q2", "mean")
        ]
        assert [(float(r["eps_tol"]), float(r["eps_harm"]), r["detector"]) for r in csv_rows] == [
            (r["eps_tol"], r["eps_harm"], r["detector"]) for r in rows
        ]
        detectors = json.loads((tmp_path / "e" / "metrics.json").read_text())["detectors"]
        at_zero = {r["detector"]: r for r in rows if r["eps_tol"] == 0.0 and r["eps_harm"] == 0.0}
        assert {d: {k: v for k, v in r.items() if k != "eps_tol"} for d, r in at_zero.items()} == detectors


@pytest.mark.parametrize(
    "command, summary, data",
    [("evaluate", "metrics.json", "runs.json"), ("sweep", "sweep.json", "sweep.csv"),
     ("calibrate", "selector.json", "grid_report.csv"), ("monitor", "monitor.json", "trajectory.csv"),
     ("simulate", "scenarios.json", "stream_f1_above_median.csv")],
)
def test_unwritable_data_file_leaves_no_summary(runner, tmp_path, command, summary, data):
    """Every command writes its summary after its data files, and removes
    an earlier run's summary first: when a data file cannot be written
    (here it is a directory), no summary is left beside it. simulate keeps
    the streams it wrote before the failing one, and the older ones after."""
    from shiftwatch.shiftsim import make_subgroup_dataset

    write_dataset(tmp_path / "src.csv", make_subgroup_dataset(500, seed=9))
    out = tmp_path / "out"
    args = [command, "--source", str(tmp_path / "src.csv"), "--out-dir", str(out)]
    args += {"calibrate": [], "monitor": ["--production", str(tmp_path / "src.csv")]}.get(command, ["--horizon", "50"])
    assert runner.invoke(main, args).exit_code == 0
    assert (out / summary).exists()
    (out / data).unlink()
    (out / data).mkdir()
    _assert_one_line_error(runner.invoke(main, args), "Is a directory", data)
    left = sorted(p.name for p in out.iterdir())
    assert summary not in left and data in left
    assert command == "simulate" or left == [data]


@pytest.mark.parametrize("command, writer", [("calibrate", "write_grid_report"), ("simulate", "write_dataset")])
def test_failed_write_removes_the_directories_it_made(runner, tmp_path, monkeypatch, command, writer):
    """A command stopped by an error before it wrote a file removes the
    out dir and the parents it made, not a directory that was there."""

    def failing(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, writer, failing)
    src = str(_scored_source(tmp_path / "src.csv"))
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "made" / "out", tmp_path / "kept"):
        _assert_one_line_error(runner.invoke(main, [command, "--source", src, "--out-dir", str(out)]), "disk full")
    assert not (tmp_path / "made").exists()
    assert (tmp_path / "kept").is_dir()


class TestEvaluateCommand:
    def test_memory_grows_by_less_than_half_a_run_of_margins(self, runner, tmp_path):
        """A suite holds each run's margin record points, not its six dense
        margin traces: at horizon 2,000, each run added to evaluate raises
        its traced peak by less than half of one run's dense margins, 6 x 8
        bytes a step. Dense traces add more than one run's margins."""
        src = _knn_source(tmp_path / "src.csv")
        horizon, peaks, runs = 2000, [], []
        for n_seeds in (1, 4):
            out = tmp_path / f"o{n_seeds}"
            args = ["evaluate", "--source", str(src), "--out-dir", str(out), "--horizon", str(horizon)]
            tracemalloc.start()
            try:
                result = runner.invoke(main, args + ["--n-seeds", str(n_seeds)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
            reports = json.loads((out / "runs.json").read_text())["runs"]
            assert not any(report["uncalibratable"] for report in reports)
            runs.append(len(reports))
        assert runs == [4, 16]
        assert (peaks[1] - peaks[0]) / (runs[1] - runs[0]) < 6 * 8 * horizon / 2, peaks

    def test_metrics_json_and_determinism(self, runner, tmp_path):
        from shiftwatch.shiftsim import make_subgroup_dataset

        src = tmp_path / "src.csv"
        write_dataset(
            src,
            make_subgroup_dataset(
                500, subgroup_frac=0.3, base_error=0.15, error_ratio=3.0, seed=9
            ),
        )
        args = lambda out: [
            "evaluate",
            "--source",
            str(src),
            "--out-dir",
            str(out),
            "--horizon",
            "300",
            "--onset",
            "80",
        ]
        r1 = runner.invoke(main, args(tmp_path / "o1"))
        assert r1.exit_code == 0, r1.output
        r2 = runner.invoke(main, args(tmp_path / "o2"))
        assert r2.exit_code == 0
        m1 = (tmp_path / "o1" / "metrics.json").read_bytes()
        m2 = (tmp_path / "o2" / "metrics.json").read_bytes()
        assert m1 == m2
        payload = json.loads(m1)
        assert set(payload["detectors"]) == {"phi_q", "phi_q2", "mean"}


    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_ablation_fraction_flag_equals_config_file(self, runner, tmp_path, command):
        """--ablation-fraction sets the key as a config file line does, and
        moves the outputs off the default fraction's."""
        from shiftwatch.shiftsim import make_subgroup_dataset

        src = tmp_path / "src.csv"
        write_dataset(src, make_subgroup_dataset(500, seed=9))
        (tmp_path / "c.cfg").write_text("ablation_fraction = 0.5\n")
        common = [command, "--source", str(src), "--horizon", "150", "--onset", "40"]
        extra = {"flag": ["--ablation-fraction", "0.5"], "file": ["--config", str(tmp_path / "c.cfg")], "default": []}
        outputs = {}
        for name, args in extra.items():
            out = tmp_path / name
            result = runner.invoke(main, common + args + ["--out-dir", str(out)])
            assert result.exit_code == 0, result.output
            outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs["flag"] == outputs["file"]
        assert outputs["flag"] != outputs["default"]

    def test_horizon_one_without_onset(self, runner, tmp_path):
        # a shifting schedule without an onset shifts at half the horizon,
        # and at least at t = 1
        from shiftwatch.shiftsim import make_subgroup_dataset

        src = tmp_path / "src.csv"
        write_dataset(src, make_subgroup_dataset(500, seed=9))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["evaluate", "--source", str(src), "--out-dir", str(out), "--horizon", "1"]
        )
        assert result.exit_code == 0, result.output
        runs = json.loads((out / "runs.json").read_text())["runs"]
        assert runs and all(run["horizon"] == 1 for run in runs)
