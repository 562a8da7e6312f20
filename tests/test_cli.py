"""Command-line behavior: reports, exit codes, config merging, CSV output."""

import errno
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from quadlab import cli, space
from quadlab.cli import main
from quadlab.textrows import format_rows

RUNTIME_LINE = re.compile(r'^\s*"runtime_ms": [^,\n]+,?$', re.MULTILINE)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.startswith("{") else None
    return code, report, captured


class TestReportShape:
    def test_top_level_keys_and_summary(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "certify", "--dim", "2", "--r", "1/2", "--d", "1.0",
            "--noise", "constant:0.05", "--samples", "500", "--seed", "42",
        )
        assert code == 0
        assert set(report) == {
            "schema_version", "command", "config", "results", "summary", "runtime_ms",
        }
        assert report["schema_version"] == 1
        assert report["command"] == "certify"
        assert report["summary"] == {"pass": True, "exit_code": 0}
        assert isinstance(report["runtime_ms"], float)

    def test_certify_numbers(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "certify", "--dim", "2", "--r", "1/2", "--d", "1.0",
            "--noise", "constant:0.05", "--samples", "500", "--seed", "42",
        )
        results = report["results"]
        # Constant shift c under r = s = 1/2: residual r*s*c = 0.0125.
        assert results["delta_hat"] == pytest.approx(0.0125, rel=1e-9)
        assert results["constants"]["C_approx"] == pytest.approx(1.425, rel=1e-9)
        assert results["max_deviation"] == pytest.approx(0.05, rel=1e-6)
        assert results["pass"] is True

    def test_status_word_on_stderr(self, capsys):
        _, _, captured = run_cli(
            capsys, "certify", "--dim", "2", "--samples", "100", "--seed", "1",
        )
        assert "certify: pass" in captured.err

    def test_certify_near_the_domain_limit(self, capsys):
        # d = 3.95 < 2 * radius_max: a thin but feasible restricted domain.
        code, report, _ = run_cli(
            capsys, "certify", "--d", "3.95", "--radius-max", "2", "--samples", "100",
        )
        assert code == 0
        assert np.isfinite(report["results"]["delta_hat"])

    def test_config_echoes_merged_values(self, capsys):
        _, report, _ = run_cli(
            capsys, "certify", "--dim", "3", "--samples", "100", "--seed", "5",
        )
        cfg = report["config"]
        assert cfg["dim"] == 3
        assert cfg["samples"] == 100
        assert cfg["r"] == "1/2"
        assert cfg["tol"] == 1e-10


class TestDeterminism:
    def _bytes(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, RUNTIME_LINE.sub("", out)

    def test_reports_byte_identical_minus_runtime(self, capsys):
        argv = (
            "certify", "--dim", "2", "--noise", "uniform:0.1",
            "--samples", "300", "--seed", "11",
        )
        code_a, text_a = self._bytes(capsys, *argv)
        code_b, text_b = self._bytes(capsys, *argv)
        assert code_a == code_b == 0
        assert "runtime_ms" not in text_a
        assert text_a == text_b

    def test_seed_changes_report(self, capsys):
        base = (
            "certify", "--dim", "2", "--noise", "uniform:0.1", "--samples", "300",
        )
        _, text_a = self._bytes(capsys, *base, "--seed", "1")
        _, text_b = self._bytes(capsys, *base, "--seed", "2")
        assert text_a != text_b

    def test_extraction_budget_changes_only_max_iters(self, capsys):
        # The probes converge within 26 doublings, so a far larger budget
        # changes nothing but its echo, and costs no memory of its own.
        base = (
            "certify", "--dim", "8", "--codim", "2", "--samples", "1000",
            "--probes", "512", "--noise", "uniform:0.05", "--seed", "1",
        )
        reports = [run_cli(capsys, *base, "--iters", iters)[1] for iters in ("26", "1000000")]
        results = [report["results"] for report in reports]
        assert [r.pop("max_iters") for r in results] == [26, 1000000]
        assert results[0] == results[1]
        assert results[0]["pass"] is True


class TestOutputFiles:
    def test_out_writes_report_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, report, captured = run_cli(
            capsys,
            "certify", "--dim", "2", "--samples", "100", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        assert report is None  # stdout held no JSON
        on_disk = json.loads(out.read_text())
        assert on_disk["summary"]["exit_code"] == 0

    def test_emit_samples_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code, _, _ = run_cli(
            capsys,
            "certify", "--dim", "2", "--samples", "50", "--seed", "4",
            "--noise", "constant:0.05", "--out", str(out), "--emit-samples",
        )
        assert code == 0
        csv_path = tmp_path / "run.samples.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,y1,y2,residual_norm"
        assert len(lines) == 1 + 50
        # Constant noise leaves every pair's residual at |r s c| = 0.0125.
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert values == pytest.approx([0.0125] * 50, rel=1e-9)

    def test_profile_emit_samples_csv(self, capsys, tmp_path):
        out = tmp_path / "prof.json"
        code, _, _ = run_cli(
            capsys,
            "profile", "--dim", "2", "--n-min", "1", "--n-max", "8",
            "--per-shell", "20", "--seed", "5", "--out", str(out), "--emit-samples",
        )
        assert code == 0
        lines = (tmp_path / "prof.samples.csv").read_text().strip().splitlines()
        assert lines[0] == "shell_lower,delta"
        assert len(lines) == 1 + 8
        assert [float(line.split(",")[0]) for line in lines[1:]] == list(
            np.arange(1.0, 9.0)
        )

    @pytest.mark.parametrize(
        "target, extra",
        [
            ("missing/dir/r.json", ()),
            (".", ()),
            (".", ("--emit-samples",)),
        ],
        ids=["missing-dir", "directory", "directory-emit-samples"],
    )
    def test_unwritable_out_is_two(self, capsys, tmp_path, target, extra):
        code, report, captured = run_cli(
            capsys, "certify", "--samples", "20", "--out", str(tmp_path / target), *extra,
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1

    def test_failed_samples_write_leaves_no_report(self, capsys, tmp_path):
        (tmp_path / "r.samples.csv").mkdir()
        code, report, captured = run_cli(
            capsys, "certify", "--samples", "20", "--out", str(tmp_path / "r.json"),
            "--emit-samples",
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()
        assert (tmp_path / "r.samples.csv").is_dir()

    def test_csv_write_failing_after_a_block_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        # Several blocks, and the disk fills up once the first is written.
        monkeypatch.setattr(space, "_BLOCK_VALUES", 5 * 5)
        csv_path = tmp_path / "r.samples.csv"
        blocks = []

        def format_then_fail(block):
            blocks.append(block.shape[0])
            if len(blocks) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(csv_path))
            return format_rows(block)

        monkeypatch.setattr(cli, "format_rows", format_then_fail)
        code, report, captured = run_cli(
            capsys, "certify", "--samples", "20", "--out", str(tmp_path / "r.json"),
            "--emit-samples",
        )
        assert code == 2
        assert blocks == [2, 2]
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {str(csv_path)!r}: {os.strerror(errno.ENOSPC)}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_emit_samples_requires_out(self, capsys):
        code, report, captured = run_cli(
            capsys, "certify", "--dim", "2", "--samples", "50", "--emit-samples",
        )
        assert code == 2
        assert report is None
        assert "emit-samples" in captured.err


# The benchmark's two emitting command lines (certify_bulk, shell_profile).
CERTIFY_EMIT = (
    "certify --dim 8 --codim 2 --r 1/3 --d 1 --noise uniform:0.05 --samples 20000 --probes 8"
)
PROFILE_EMIT = "profile --dim 8 --codim 2 --n-min 1 --n-max 64 --per-shell 5000"


def percent_r_certify_csv(header, samples) -> bytes:
    """The samples CSV as the ``%r`` formatting wrote it before streaming."""
    xs, ys, norms = samples
    fmt = ",".join(["%r"] * len(header))
    lines = [fmt % tuple(row) for row in np.column_stack((xs, ys, norms)).tolist()]
    return ("\n".join([",".join(header), *lines]) + "\n").encode("ascii")


def percent_r_profile_csv(n_min, n_max, deltas) -> bytes:
    lines = [
        "%r,%r" % (float(n), float(deltas[k]))
        for k, n in enumerate(range(n_min, n_max + 1))
    ]
    return ("\n".join(["shell_lower,delta", *lines]) + "\n").encode("ascii")


class TestSamplesCsvBytes:
    """Every CSV value is its ``repr``: the streamed file equals the one the
    ``%r`` expression built, and emitting it leaves the report unchanged."""

    def _emit(self, capsys, tmp_path, monkeypatch, line):
        written = []
        write = cli._write_samples_csv

        def recording(path, header, columns):
            written.append((header, columns))
            write(path, header, columns)

        monkeypatch.setattr(cli, "_write_samples_csv", recording)
        out = tmp_path / "run.json"
        code = main([*line.split(), "--emit-samples", "--out", str(out)])
        capsys.readouterr()
        (header, columns), = written
        report = json.loads(out.read_text())
        # The report is the one the same command prints without a CSV.
        assert main(line.split()) == code
        alone = json.loads(capsys.readouterr().out)
        for side in (report, alone):
            del side["runtime_ms"]
            side["config"].update(emit_samples=None, out=None)
        assert report == alone
        return header, columns, (tmp_path / "run.samples.csv").read_bytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certify_bulk_command(self, capsys, tmp_path, monkeypatch, seed):
        header, samples, csv = self._emit(
            capsys, tmp_path, monkeypatch, f"{CERTIFY_EMIT} --seed {seed}"
        )
        assert header[0] == "x1" and header[-1] == "residual_norm"
        assert csv == percent_r_certify_csv(header, samples)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "noise", ["--noise decay:1,1 --decay-tol 0.8", "--noise constant:1 --decay-tol 0.02"]
    )
    def test_shell_profile_command(self, capsys, tmp_path, monkeypatch, seed, noise):
        header, (shells, deltas), csv = self._emit(
            capsys, tmp_path, monkeypatch, f"{PROFILE_EMIT} {noise} --seed {seed}"
        )
        assert csv == percent_r_profile_csv(1, 64, deltas)

    def test_200k_rows(self, capsys, tmp_path, monkeypatch):
        header, samples, csv = self._emit(
            capsys, tmp_path, monkeypatch,
            "certify --dim 8 --codim 2 --probes 8 --samples 200000",
        )
        assert csv == percent_r_certify_csv(header, samples)

    @pytest.mark.parametrize(
        "line",
        [
            "certify --dim 3 --noise uniform:0.1 --samples 300 --seed 2",
            "profile --dim 2 --n-min 1 --n-max 12 --per-shell 30 --seed 4",
        ],
    )
    def test_block_size_changes_no_byte(self, capsys, tmp_path, monkeypatch, line):
        argv = [*line.split(), "--emit-samples", "--out", str(tmp_path / "run.json")]
        main(argv)
        whole = (tmp_path / "run.samples.csv").read_bytes()
        for values in (1, 7, 2 * 7 + 1):
            monkeypatch.setattr(space, "_BLOCK_VALUES", values)
            main(argv)
            assert (tmp_path / "run.samples.csv").read_bytes() == whole
        capsys.readouterr()


def _recording_format_rows(monkeypatch, fail=None):
    """Patch ``cli.format_rows`` to record the thread of each call, and to
    raise ``fail(thread, calls)``'s exception when it returns one."""
    threads = []

    def recording(block):
        threads.append(threading.get_ident())
        error = fail and fail(threads[-1], threads)
        if error is not None:
            raise error
        return format_rows(block)

    monkeypatch.setattr(cli, "format_rows", recording)
    return threads


def _columns(n, width=5, seed=1):
    rng = np.random.default_rng(seed)
    return [f"c{i}" for i in range(width)], (
        rng.standard_normal((n, width - 1)),
        rng.standard_normal(n),
    )


def _enospc(path):
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


class TestSamplesCsvOnTwoThreads:
    """The writer formats blocks of half a row block in pairs: the helper
    takes the later block of each pair while the calling thread formats and
    writes the earlier one.  The bytes, the write order and the error order
    are the serial loop's."""

    @pytest.mark.parametrize(
        "line, block_values, blocks",
        [
            ("certify --dim 2 --samples 40 --seed 5", 50, 8),
            ("certify --dim 2 --samples 45 --seed 5", 50, 9),
            ("profile --dim 2 --n-min 1 --n-max 8 --per-shell 30 --seed 4", 6, 8),
            ("profile --dim 2 --n-min 1 --n-max 9 --per-shell 30 --seed 4", 6, 9),
        ],
        ids=["certify-even", "certify-odd", "profile-even", "profile-odd"],
    )
    def test_csv_bytes_match_the_serial_reference(
        self, capsys, tmp_path, monkeypatch, line, block_values, blocks
    ):
        monkeypatch.setattr(space, "_BLOCK_VALUES", block_values)
        written = []
        write = cli._write_samples_csv

        def recording(path, header, columns):
            written.append((header, columns))
            write(path, header, columns)

        monkeypatch.setattr(cli, "_write_samples_csv", recording)
        threads = _recording_format_rows(monkeypatch)
        before = threading.active_count()
        assert main([*line.split(), "--emit-samples", "--out", str(tmp_path / "r.json")]) == 0
        assert threading.active_count() == before
        capsys.readouterr()
        (header, columns), = written
        csv = (tmp_path / "r.samples.csv").read_bytes()
        if header[0] == "shell_lower":
            assert csv == percent_r_profile_csv(1, columns[0].shape[0], columns[1])
        else:
            assert csv == percent_r_certify_csv(header, columns)
        # The caller formats the earlier block of each pair, and an odd last one.
        assert len(threads) == blocks and len(set(threads)) == 2
        assert threads.count(threading.get_ident()) == (blocks + 1) // 2

    def test_a_helper_csv_error_removes_the_partial_file(self, tmp_path, monkeypatch):
        # 2 rows a block, 10 blocks: the helper's second block (block 3)
        # fails after the caller has written blocks 0, 1 and 2.
        monkeypatch.setattr(space, "_BLOCK_VALUES", 2 * 2 * 5)
        path = tmp_path / "r.samples.csv"
        caller = threading.get_ident()

        def fail(thread, calls):
            if thread != caller and calls.count(thread) == 2:
                return _enospc(path)

        threads = _recording_format_rows(monkeypatch, fail)
        before = threading.active_count()
        with pytest.raises(OSError) as raised:
            cli._write_samples_csv(path, *_columns(20))
        assert raised.value.errno == errno.ENOSPC
        assert threading.active_count() == before
        assert threads.count(caller) == 2 and len(threads) == 4
        assert list(tmp_path.iterdir()) == []

    def test_the_callers_csv_error_wins_over_the_helpers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(space, "_BLOCK_VALUES", 2 * 2 * 5)
        path = tmp_path / "r.samples.csv"
        caller = threading.get_ident()
        helper_failed = threading.Event()

        def fail(thread, calls):
            if thread != caller:
                helper_failed.set()
                return ValueError("the helper's block refused")
            assert helper_failed.wait(10.0)
            return _enospc(path)

        _recording_format_rows(monkeypatch, fail)
        before = threading.active_count()
        with pytest.raises(OSError) as raised:
            cli._write_samples_csv(path, *_columns(20))
        assert raised.value.errno == errno.ENOSPC
        assert threading.active_count() == before
        assert helper_failed.is_set()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", [1, 100, 4096])
    def test_a_csv_of_one_row_block_starts_no_thread(self, tmp_path, monkeypatch, n):
        # 4096 rows of 16 values fill one row block exactly.
        header, columns = _columns(n, width=16)
        threads = _recording_format_rows(monkeypatch)
        before = threading.active_count()
        cli._write_samples_csv(tmp_path / "r.samples.csv", header, columns)
        assert threading.active_count() == before
        assert set(threads) == {threading.get_ident()}
        assert (tmp_path / "r.samples.csv").read_bytes() == (
            ",".join(header) + "\n"
        ).encode("ascii") + format_rows(np.column_stack(columns))

    @pytest.mark.parametrize("side", ["caller", "helper"])
    def test_csv_out_of_memory_is_two_with_no_file(self, capsys, tmp_path, monkeypatch, side):
        monkeypatch.setattr(space, "_BLOCK_VALUES", 5 * 5)
        caller = threading.get_ident()

        def fail(thread, calls):
            if (thread == caller) == (side == "caller") and calls.count(thread) == 2:
                return MemoryError("Unable to allocate 7.45 GiB for an array")

        _recording_format_rows(monkeypatch, fail)
        before = threading.active_count()
        code, report, captured = run_cli(
            capsys, "certify", "--samples", "20", "--out", str(tmp_path / "r.json"),
            "--emit-samples",
        )
        assert threading.active_count() == before
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: certify ran out of memory; no report written\n"
        assert list(tmp_path.iterdir()) == []

    def test_an_interrupted_csv_write_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        _recording_format_rows(monkeypatch, lambda thread, calls: KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            main(["certify", "--samples", "20", "--out", str(tmp_path / "r.json"), "--emit-samples"])
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_precedence_defaults_file_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "\n"
            "samples=200\n"
            "seed = 7\n"
            "noise=constant:0.05\n"
        )
        code, report, _ = run_cli(
            capsys, "certify", "--dim", "2", "--config", str(cfg), "--seed", "9",
        )
        assert code == 0
        assert report["config"]["samples"] == 200  # file beat default
        assert report["config"]["seed"] == 9  # flag beat file
        assert report["config"]["noise"] == "constant:0.05"

    def test_dashed_keys_normalize(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("per-shell=30\nn-max=8\n")
        code, report, _ = run_cli(
            capsys, "profile", "--dim", "2", "--config", str(cfg), "--seed", "1",
        )
        assert code == 0
        assert report["config"]["per_shell"] == 30
        assert report["config"]["n_max"] == 8

    def test_unknown_key_is_an_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code, report, captured = run_cli(
            capsys, "certify", "--config", str(cfg),
        )
        assert code == 2
        assert report is None
        assert "unknown config key" in captured.err

    def test_bad_value_is_an_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=abc\n")
        code, _, captured = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == 2
        assert "invalid" in captured.err

    def test_missing_equals_is_an_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples\n")
        code, _, captured = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == 2
        assert "key=value" in captured.err

    # One value of each option type and scope: (base argv, key, value as
    # written, value in the report, flag argv).
    ONE_OF_EACH = [
        (("certify", "--samples", "50"), "probes", "4", 4, ("--probes", "4")),
        (("certify", "--samples", "50"), "radius_max", "1.5", 1.5, ("--radius-max", "1.5")),
        (("detect-ip", "--samples", "50"), "norm", "sup", "sup", ("--norm", "sup")),
        (("certify", "--samples", "50"), "emit_samples", "yes", True, ("--emit-samples",)),
        (("profile", "--n-max", "8", "--per-shell", "10"), "decay_tol", "0.5", 0.5,
         ("--decay-tol", "0.5")),
        (("residual", "--dim", "1", "--x", "1", "--y", "1"), "map", "cube", "cube",
         ("--map", "cube")),
    ]

    @pytest.mark.parametrize("base, key, text, value, flag", ONE_OF_EACH)
    def test_file_and_flag_agree(self, capsys, tmp_path, base, key, text, value, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={text}\n")
        out = tmp_path / "report.json"

        def config_block(*argv):
            code, _, _ = run_cli(capsys, *base, "--out", str(out), *argv)
            return code, json.loads(out.read_text())["config"]

        code_file, from_file = config_block("--config", str(cfg))
        code_flag, from_flag = config_block(*flag)
        assert code_file == code_flag
        assert from_file[key] == value
        assert from_file == from_flag

    @pytest.mark.parametrize(
        "text, emitted",
        [(t, True) for t in ("true", "1", "yes", "on", "ON")]
        + [(t, False) for t in ("false", "0", "no", "off")],
    )
    def test_boolean_spellings(self, capsys, tmp_path, text, emitted):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"emit_samples={text}\n")
        out = tmp_path / "run.json"
        code, _, _ = run_cli(
            capsys, "certify", "--samples", "20", "--out", str(out), "--config", str(cfg),
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["emit_samples"] is emitted
        assert (tmp_path / "run.samples.csv").exists() is emitted

    def test_other_subcommand_key_is_echoed(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid=2,2,2,2\n")
        code, report, _ = run_cli(
            capsys, "certify", "--samples", "50", "--config", str(cfg),
        )
        assert code == 0
        assert report["config"]["grid"] == "2,2,2,2"

    def test_other_subcommand_flag_is_two(self, capsys):
        code, report, _ = run_cli(capsys, "certify", "--grid", "default")
        assert code == 2
        assert report is None

    def test_missing_file_is_an_error(self, capsys, tmp_path):
        code, _, captured = run_cli(
            capsys, "certify", "--config", str(tmp_path / "nope.cfg"),
        )
        assert code == 2
        assert "cannot read config file" in captured.err

    def test_non_utf8_file_is_an_error(self, capsys, tmp_path):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"\xff\xfe = 1")
        out = tmp_path / "r.json"
        code, report, captured = run_cli(
            capsys, "certify", "--config", str(cfg), "--out", str(out),
        )
        assert code == 2
        assert report is None
        assert captured.err.startswith("error: cannot read config file ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestExitCodes:
    def test_fail_is_one(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "certify", "--dim", "2", "--noise", "constant:1", "--delta", "1e-6",
            "--samples", "100", "--seed", "6",
        )
        assert code == 1
        assert report["summary"] == {"pass": False, "exit_code": 1}

    def test_invalid_weight_is_two_with_no_report(self, capsys):
        code, report, captured = run_cli(
            capsys, "certify", "--r", "1/1", "--samples", "100",
        )
        assert code == 2
        assert report is None
        assert captured.out == ""
        assert "error:" in captured.err and "nonzero" in captured.err

    def test_inconclusive_is_three(self, capsys):
        # Flat defect 0.25 sits between decay_tol and 10 * decay_tol.
        code, report, _ = run_cli(
            capsys,
            "profile", "--dim", "2", "--noise", "constant:1",
            "--n-min", "1", "--n-max", "8", "--per-shell", "20",
            "--seed", "7", "--decay-tol", "0.1",
        )
        assert code == 3
        assert report["summary"] == {"pass": None, "exit_code": 3}
        assert report["results"]["verdict"]["verdict"] == "inconclusive"

    def test_out_of_memory_is_two_with_no_report(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(cli, "certify", exhausted)
        code, report, captured = run_cli(
            capsys, "certify", "--samples", "20", "--out", str(tmp_path / "r.json"),
            "--emit-samples",
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: certify ran out of memory; no report written\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_is_two(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--frobnicate", "1")
        assert code == 2

    def test_missing_subcommand_is_two(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand_is_two(self, capsys):
        assert run_cli(capsys, "flatten")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_a_value_may_start_with_a_dash(self, capsys):
        # The paper's weights and points may be negative.
        for argv, key, value in [
            (["certify", "--r", "-1/7", "--samples", "50"], "r", "-1/7"),
            (["residual", "--x", "1,2", "--y", "-3,0.5"], "y", "-3,0.5"),
            (["residual", "--dim", "1", "--x", "-1e3", "--y", "1"], "x", "-1e3"),
            (["residual", "--dim", "2", "--form", "-1,0;0,1", "--x", "1,2", "--y", "3,4"],
             "form", "-1,0;0,1"),
            (["exponents", "--dim", "2", "--grid", "-1,2,2,2"], "grid", "-1,2,2,2"),
        ]:
            code, report, captured = run_cli(capsys, *argv)
            assert code == 0, (argv, captured.err)
            assert report["config"][key] == value

    def test_an_option_is_not_a_value(self, capsys):
        code, report, captured = run_cli(capsys, "residual", "--x", "--y", "1")
        assert code == 2 and report is None
        assert "argument --x: expected one argument" in captured.err
        code, _, captured = run_cli(capsys, "residual", "-h")
        assert code == 0 and captured.out.startswith("usage: quadlab residual")


class TestHelp:
    def test_top_level_help_lists_every_command(self, capsys):
        code, _, captured = run_cli(capsys, "-h")
        assert code == 0
        for command, (_, _, command_help) in cli._COMMANDS.items():
            assert re.search(rf"^\s+{command}\s+{re.escape(command_help)}$", captured.out, re.M)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help_lists_its_flags_only(self, capsys, command):
        code, _, captured = run_cli(capsys, command, "-h")
        assert code == 0
        assert captured.out.startswith(f"usage: quadlab {command} ")
        in_scope = {
            cli._flag(key) for key, (*_, scope) in cli._OPTIONS.items() if scope in (None, command)
        }
        assert set(re.findall(r"--[a-z][a-z-]*", captured.out)) == in_scope | {"--config", "--help"}

    def test_unknown_command_is_an_invalid_choice(self, capsys):
        code, report, captured = run_cli(capsys, "flatten", "--dim", "2")
        assert code == 2 and report is None
        assert "argument command: invalid choice: 'flatten'" in captured.err
        assert all(command in captured.err for command in cli._COMMANDS)


class TestDetectIp:
    def test_euclidean_accepts(self, capsys):
        code, report, _ = run_cli(
            capsys, "detect-ip", "--dim", "3", "--samples", "200", "--seed", "8",
        )
        assert code == 0
        assert report["results"]["accepted"] is True
        got = np.asarray(report["results"]["recovered_gram"])
        assert np.allclose(got, np.eye(3), atol=1e-10)

    def test_one_norm_rejects_with_witness(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "detect-ip", "--dim", "2", "--norm", "p:1", "--samples", "200",
        )
        assert code == 1
        assert report["results"]["accepted"] is False
        assert report["results"]["basis_witness_max"] == 4.0
        assert report["summary"]["pass"] is False

    def test_weighted_recovers_gram(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "detect-ip", "--dim", "2", "--norm", "weighted",
            "--gram", "2,0;0,3", "--samples", "200",
        )
        assert code == 0
        got = np.asarray(report["results"]["recovered_gram"])
        assert np.allclose(got, [[2.0, 0.0], [0.0, 3.0]], atol=1e-10)

    @pytest.mark.parametrize(
        "argv",
        [
            ("detect-ip", "--norm", "weighted"),  # gram missing
            ("detect-ip", "--norm", "weighted", "--gram", "1,2;3,4"),  # asymmetric
            ("detect-ip", "--norm", "weighted", "--gram", "1,0;0"),  # ragged
            ("detect-ip", "--dim", "3", "--norm", "weighted", "--gram", "2,0;0,3"),
            ("detect-ip", "--norm", "mahalanobis"),
            ("detect-ip", "--norm", "p:zero"),
        ],
    )
    def test_bad_space_requests(self, capsys, argv):
        code, report, captured = run_cli(capsys, *argv)
        assert code == 2
        assert report is None
        assert captured.out == ""


class TestExponents:
    def test_euclidean_flags_all_squares(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "exponents", "--dim", "2", "--r", "1/3", "--samples", "300",
            "--seed", "9",
        )
        assert code == 0
        assert report["results"]["flagged"] == [[2.0, 2.0, 2.0, 2.0]]
        assert len(report["results"]["entries"]) == 81

    def test_one_norm_flags_nothing(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "exponents", "--dim", "2", "--norm", "p:1", "--r", "1/3",
            "--samples", "300", "--seed", "9",
        )
        assert code == 0
        assert report["results"]["flagged"] == []

    def test_custom_grid(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "exponents", "--dim", "2", "--grid", "2,2,2,2;1,2,2,2",
            "--samples", "100", "--seed", "10",
        )
        assert code == 0
        assert len(report["results"]["entries"]) == 2

    @pytest.mark.parametrize("grid", ["0,2,2,2", "1,2,3", "a,b,c,d"])
    def test_bad_grids(self, capsys, grid):
        code, _, captured = run_cli(
            capsys, "exponents", "--dim", "2", "--grid", grid, "--samples", "50",
        )
        assert code == 2
        assert captured.out == ""


class TestProfile:
    def test_exact_form_decays(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "profile", "--dim", "2", "--n-min", "1", "--n-max", "8",
            "--per-shell", "20", "--seed", "11",
        )
        assert code == 0
        assert report["results"]["verdict"]["verdict"] == "asymptotically_quadratic"
        assert len(report["results"]["profile"]["deltas"]) == 8

    def test_constant_noise_persists(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "profile", "--dim", "2", "--noise", "constant:1",
            "--n-min", "1", "--n-max", "8", "--per-shell", "20",
            "--seed", "12", "--decay-tol", "0.02",
        )
        assert code == 1
        assert report["results"]["verdict"]["verdict"] == "persistent_defect"

    def test_too_few_shells_is_invalid(self, capsys):
        code, report, captured = run_cli(
            capsys,
            "profile", "--dim", "2", "--n-min", "1", "--n-max", "3",
            "--per-shell", "20",
        )
        assert code == 2
        assert report is None
        assert "shells" in captured.err


class TestResidual:
    def test_exact_form_has_zero_residuals(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "residual", "--dim", "1", "--r", "1/3", "--noise", "none",
            "--x", "3", "--y", "0",
        )
        assert code == 0
        results = report["results"]
        assert abs(results["gq_residual_norm"]) <= 1e-12
        assert abs(results["q_residual_norm"]) <= 1e-12
        assert set(results["derivation_chain"]) == {
            "odd_r_scaling", "odd_s_scaling", "even_doubling", "even_cross_expansion",
        }

    def test_constant_noise_closed_form(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "residual", "--dim", "1", "--r", "1/3", "--noise", "constant:5",
            "--x", "3", "--y", "0",
        )
        assert code == 0
        results = report["results"]
        # r s c = (1/3)(2/3) * 5 = 10/9; classical residual is -2c.
        assert results["gq_residual_norm"] == pytest.approx(10.0 / 9.0, rel=1e-12)
        assert results["q_residual"][0] == pytest.approx(-10.0, rel=1e-12)

    def test_cube_map_oracle(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "residual", "--dim", "1", "--map", "cube", "--x", "1", "--y", "1",
        )
        assert code == 0
        # t^3: residual 8 + 0 - 2 - 2 = 4.
        assert report["results"]["q_residual"][0] == pytest.approx(4.0, rel=1e-12)

    def test_odd_witness_map(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "residual", "--dim", "2", "--map", "odd:2,-1", "--r", "1/2",
            "--x", "3,1", "--y", "0,0",
        )
        assert code == 0
        # r s L(x) = 0.25 * (2*3 - 1) = 1.25 at y = 0.
        assert report["results"]["gq_residual"][0] == pytest.approx(1.25, rel=1e-12)

    def test_missing_point_is_invalid(self, capsys):
        code, _, captured = run_cli(capsys, "residual", "--dim", "2", "--x", "1,2")
        assert code == 2
        assert "--x and --y" in captured.err

    def test_wrong_length_point(self, capsys):
        code, _, captured = run_cli(
            capsys, "residual", "--dim", "2", "--x", "1,2,3", "--y", "0,0",
        )
        assert code == 2

    def test_unparsable_point(self, capsys):
        code, _, _ = run_cli(
            capsys, "residual", "--dim", "2", "--x", "one,two", "--y", "0,0",
        )
        assert code == 2


class TestMapAndFormParsing:
    def test_explicit_form_blocks(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "residual", "--dim", "2", "--form", "1,2;2,5",
            "--x", "1,1", "--y", "1,1",
        )
        assert code == 0
        assert abs(report["results"]["q_residual_norm"]) <= 1e-10

    @pytest.mark.parametrize(
        "argv",
        [
            ("residual", "--dim", "2", "--form", "1,0;0,1|1,0;0,1",
             "--x", "1,1", "--y", "0,0"),  # two blocks, codim 1
            ("residual", "--dim", "2", "--form", "1,0;0", "--x", "1,1", "--y", "0,0"),
            ("residual", "--dim", "2", "--form", "random:abc",
             "--x", "1,1", "--y", "0,0"),
            ("residual", "--dim", "2", "--map", "odd:1,2;3,4",
             "--x", "1,1", "--y", "0,0"),  # 2x2 witness, codim 1
            ("residual", "--dim", "2", "--map", "banana", "--x", "1,1", "--y", "0,0"),
            ("certify", "--noise", "banana:1"),
            ("certify", "--noise", "decay:1"),
            ("certify", "--dim", "2", "--codim", "2",
             "--form", "1,0;0,1|1,0,0;0,1,0"),  # blocks of unequal shapes
            # Non-finite inputs and results: no report may carry NaN/Infinity.
            ("residual", "--dim", "1", "--x", "nan", "--y", "1"),
            ("residual", "--dim", "1", "--map", "cube", "--x", "1e200", "--y", "1"),
            ("profile", "--dim", "2", "--form", "1e300,0;0,1", "--n-min", "1",
             "--n-max", "8", "--per-shell", "10"),
            ("detect-ip", "--dim", "2", "--norm", "p:1e-300", "--samples", "10"),
            ("certify", "--codim", "0"),
            ("certify", "--codim", "0", "--form", "1,0;0,1"),
            # Norms of rows at radius 1e200 overflow float64.
            ("detect-ip", "--radius-max", "1e200", "--samples", "50"),
            # The shell margin swallows shells past about 5e8.
            ("profile", "--n-min", "600000000", "--n-max", "600000004", "--per-shell", "1"),
            # Direction norms overflow float64, which would zero sampled rows.
            ("certify", "--norm", "p:1000", "--samples", "200", "--d", "0"),
            ("exponents", "--norm", "p:0.0005", "--samples", "50"),
        ],
    )
    def test_bad_specs(self, capsys, argv):
        code, report, captured = run_cli(capsys, *argv)
        assert code == 2
        assert report is None
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("certify", "--codim", "0"), "--codim"),
            (("certify", "--codim", "0", "--form", "1,0;0,1"), "--codim"),
            (("profile", "--dim", "0"), "--dim"),
        ],
    )
    def test_dimension_errors_name_the_flag(self, capsys, argv, flag):
        code, _, captured = run_cli(capsys, *argv)
        assert code == 2
        assert captured.err == f"error: {flag} must be a positive integer, got 0\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            # 10**400 / 3 has no float: the weight check runs before float().
            (("--r", f"{10**400}/3"), f"weight r must be finite, got Fraction({10**400}, 3)"),
            (("--map", "odd:nan,0"), "witness matrix must be finite"),
        ],
        ids=["overflowing-rational-weight", "non-finite-witness"],
    )
    def test_input_without_finite_floats_is_one_error_line(self, capsys, flags, message):
        code, report, captured = run_cli(
            capsys, "residual", "--dim", "2", "--x", "1,0", "--y", "0,1", *flags
        )
        assert code == 2
        assert report is None and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_finite_result_is_one_stderr_line(self):
        # The overflow inside the run must not leak numpy warnings.  Run in a
        # fresh interpreter: pytest would capture warnings before stderr.
        proc = subprocess.run(
            [sys.executable, "-m", "quadlab.cli", "profile", "--dim", "2",
             "--form", "1e300,0;0,1", "--n-min", "1", "--n-max", "8", "--per-shell", "10"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: profile result is not finite; no report written\n"

    def test_huge_symmetric_form_is_accepted_as_given(self, capsys):
        # The two triangles' sum would overflow; the form is finite and symmetric.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report, _ = run_cli(
                capsys,
                "residual", "--dim", "2", "--form", "1e308,0;0,1",
                "--x", "1e-200,0", "--y", "0,1",
            )
        assert code == 0
        assert report["results"]["q_residual_norm"] == 0.0

    def test_non_finite_form_is_named_non_finite(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report, captured = run_cli(
                capsys,
                "residual", "--dim", "2", "--form", "nan,0;0,1", "--x", "1,0", "--y", "0,1",
            )
        assert code == 2
        assert report is None
        assert captured.err == "error: coefficient matrices must be finite\n"

    def test_random_form_scale_parses(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "residual", "--dim", "2", "--form", "random:2.5", "--seed", "13",
            "--x", "1,1", "--y", "0,1",
        )
        assert code == 0
        assert abs(report["results"]["q_residual_norm"]) <= 1e-10

    def test_sine_noise_parses(self, capsys):
        code, report, _ = run_cli(
            capsys,
            "residual", "--dim", "2", "--noise", "sine:0.5",
            "--x", "1,1", "--y", "0,1",
        )
        assert code == 0
