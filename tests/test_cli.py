"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.exp.bench import SUITE_NAMES


class TestReduce:
    def test_pair(self, capsys):
        assert main(["reduce", "MEI", "MESI"]) == 0
        out = capsys.readouterr().out
        assert "system protocol: MEI" in out

    def test_none_keyword(self, capsys):
        assert main(["reduce", "none", "MOESI"]) == 0
        assert "MEI" in capsys.readouterr().out

    def test_unknown_protocol_exits_2(self, capsys):
        assert main(["reduce", "XYZ", "MESI"]) == 2
        err = capsys.readouterr().err
        assert "repro reduce:" in err
        assert "XYZ" in err


class TestTables:
    def test_both_tables_printed(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert out.count("STALE") == 2
        assert "system protocol MEI" in out
        assert "system protocol MSI" in out


class TestDeadlock:
    def test_exactly_one_wedge(self, capsys):
        assert main(["deadlock"]) == 0
        out = capsys.readouterr().out
        assert out.count("HARDWARE DEADLOCK") == 1
        assert out.count("completed") == 3


class TestFaults:
    def test_list_prints_matrix(self, capsys):
        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        assert "drain-drop" in out
        assert "expect=watchdog" in out
        assert "expect=benign" in out

    def test_single_entry_with_dump(self, capsys, tmp_path):
        dump = tmp_path / "faults.json"
        assert main(["faults", "--only", "drain-drop", "--dump", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "watchdog" in out
        assert "MISMATCH" not in out
        assert "drain-drop" in dump.read_text()

    def test_unknown_entry_rejected(self, capsys):
        assert main(["faults", "--only", "gremlin"]) == 2
        assert "unknown matrix entry" in capsys.readouterr().err


class TestBench:
    def test_runs_and_prints_stats(self, capsys):
        code = main(
            ["bench", "bcs", "proposed", "--lines", "2", "--iterations", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bcs/proposed:" in out
        assert "bus.txns" in out

    def test_check_flag(self, capsys):
        code = main(
            ["bench", "wcs", "software", "--lines", "2", "--iterations", "2",
             "--check"]
        )
        assert code == 0

    def test_unknown_engine_rejected_by_argparse(self):
        # There is no engine to pick: the microbench scenarios run the
        # event kernel, so --engine is not an option at all.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "wcs", "proposed", "--engine", "exact"])
        assert exc.value.code == 2


class TestBenchPaper:
    def test_runner_flags_reach_the_runner(self, capsys, tmp_path, monkeypatch):
        from repro.analysis import compute_headlines, figure5_wcs
        from repro.exp import paper

        def fig5(runner):
            data = figure5_wcs(
                line_counts=(1, 2), exec_times=(1,), iterations=2, runner=runner
            )
            for series in data.series:
                for lines, ratio in series.points.items():
                    yield f"{series.name} lines={lines}", ratio

        def headlines(runner):
            for headline in compute_headlines(iterations=2, lines=2, runner=runner):
                yield headline.claim, headline.measured

        monkeypatch.setattr(
            paper, "EXPERIMENTS", {"fig5": fig5, "headlines": headlines}
        )
        cache = tmp_path / "cache"
        manifest = cache / "manifest.json"

        def run(output):
            argv = ["bench", "paper", "--jobs", "2", "--cache-dir", str(cache),
                    "--output", str(output)]
            assert main(argv) == 0
            assert "paper runner:" in capsys.readouterr().out
            return json.loads(manifest.read_text()), json.loads(output.read_text())

        cold, cold_doc = run(tmp_path / "cold.json")
        assert cold["workers"] == 2
        assert cold["cache_dir"] == str(cache)
        # Five headline jobs simulate nothing: the four WCS margin cells
        # at et=1, lines 1 and 2, are Fig 5 jobs, and the et=4 proposed
        # margin cell is also the exec_time=4 headline's job.
        assert cold["deduplicated"] == 5
        assert cold["executed"] == cold["n_jobs"] - 5

        warm, warm_doc = run(tmp_path / "warm.json")
        assert warm["executed"] == 0
        assert warm["cache_hits"] == cold["executed"]
        assert warm_doc["rows"] == cold_doc["rows"]


class TestVerify:
    def test_matrix_printed_and_safe(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        wrapped_section = out.split("-- unwrapped")[0]
        assert "UNSAFE" not in wrapped_section
        assert "UNSAFE" in out  # the unwrapped section shows failures
        assert out.count("SAFE") >= 16


class TestLint:
    def test_repo_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format_parses(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro-lint"
        assert doc["errors"] == 0

    def test_seeded_violation_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "sim" / "kernel.py"
        bad.parent.mkdir()
        bad.write_text("class Hot:\n    def __init__(self):\n        self.x = 1\n")
        assert main(["lint", str(tmp_path), "--rules", "slots"]) == 1
        out = capsys.readouterr().out
        assert "[error] slots" in out

    def test_baseline_workflow(self, capsys, tmp_path):
        bad = tmp_path / "sim" / "kernel.py"
        bad.parent.mkdir()
        bad.write_text("class Hot:\n    def __init__(self):\n        self.x = 1\n")
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(tmp_path),
                    "--rules",
                    "slots",
                    "--write-baseline",
                    str(baseline),
                ]
            )
            == 0
        )
        capsys.readouterr()
        # With the baseline applied the same findings no longer fail the run.
        code = main(
            ["lint", str(tmp_path), "--rules", "slots", "--baseline", str(baseline)]
        )
        assert code == 0
        assert "baselined" in capsys.readouterr().out

    def test_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--rules", "no-such-rule"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("determinism", "slots", "protocol-tables"):
            assert rule in out


class TestExitCodes:
    def test_bench_check_without_baseline_exits_2(self, capsys, tmp_path):
        code = main(
            [
                "bench",
                "hotpath",
                "--check",
                "--baseline",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 2
        assert "no baseline found" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    @pytest.mark.parametrize("content", [None, "{not json", "[]"],
                             ids=["missing", "corrupt", "not-an-object"])
    def test_bench_check_with_unusable_baseline_exits_2(
        self, capsys, tmp_path, suite, content
    ):
        # --check must never pass vacuously: a deleted or mangled BENCH
        # file fails before the suite runs.
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content)
        code = main(["bench", suite, "--check", "--baseline", str(baseline)])
        assert code == 2
        captured = capsys.readouterr()
        assert "no baseline found" in captured.err
        assert f"repro bench {suite}" in captured.err
        assert captured.out == ""


    def test_serve_has_no_engine_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--engine", "exact"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])
