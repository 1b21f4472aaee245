"""The shared BENCH driver: oracles, write rules, checks and invariants."""

import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.exp import hotpath
from repro.exp.bench import (
    EXACT,
    SUITE_NAMES,
    BenchSuite,
    baseline_mismatch,
    check_regression,
    load_results,
    render_comparison,
    suites,
    write_results,
)
from repro.service.bench import SUITE as SERVICE_SUITE
from repro.service.bench import overlap_invariants

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_cli_choices_name_every_suite():
    registry = suites()
    assert tuple(registry) == SUITE_NAMES
    for name, suite in registry.items():
        assert suite.bench_file == f"BENCH_{name}.json"
        assert (REPO_ROOT / suite.bench_file).is_file()


@pytest.mark.parametrize("suite", ["scaleout", "fabrics"])
def test_full_run_regenerates_the_committed_baseline(tmp_path, suite, capsys):
    # The simulated sweeps are golden: a full run through the CLI must
    # rewrite the committed file byte for byte.  Only the recorded
    # interpreter version may differ from the one running the test.
    output = tmp_path / f"BENCH_{suite}.json"
    assert main(["bench", suite, "--output", str(output)]) == 0
    committed = (REPO_ROOT / f"BENCH_{suite}.json").read_text()
    recorded = json.loads(committed)["python"]
    running = sys.version.split()[0]
    expected = committed.replace(
        f'"python": "{recorded}"', f'"python": "{running}"'
    )
    assert output.read_text() == expected
    assert f"results written to {output}" in capsys.readouterr().out


class TestWriteRules:
    def test_output_records_a_missing_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_scaleout.json"
        argv = ["bench", "scaleout", "--quick", "--baseline", str(baseline),
                "--output", str(baseline)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "no baseline found" in out
        assert "repro bench scaleout --output BENCH_scaleout.json" in out
        assert load_results(str(baseline))["suite"] == "scaleout"

    def test_runs_without_output_write_nothing(self, tmp_path, monkeypatch):
        # Full, quick and gating runs alike leave the baseline and the
        # working directory untouched unless --output names a file.
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "BENCH_scaleout.json"
        committed = (REPO_ROOT / "BENCH_scaleout.json").read_text()
        baseline.write_text(committed)
        for flags in ([], ["--check"], ["--quick"], ["--quick", "--check"]):
            argv = ["bench", "scaleout", "--baseline", str(baseline), *flags]
            assert main(argv) == 0
        assert baseline.read_text() == committed
        assert list(tmp_path.iterdir()) == [baseline]

    def test_rewrite_keeps_the_previous_block(self, tmp_path):
        baseline = {
            "suite": "hotpath", "python": "3.0.0", "impl": "CPython",
            "engine": {"name": "exact"}, "quick": False,
            "metrics": {"kernel_events_per_sec": 1.0}, "params": {},
        }
        current = dict(baseline, metrics={"kernel_events_per_sec": 2.0})
        path = tmp_path / "BENCH_hotpath.json"
        write_results(hotpath.SUITE, current, str(path), baseline)
        written = load_results(str(path))
        assert written["metrics"] == {"kernel_events_per_sec": 2.0}
        assert written["previous"] == {
            "metrics": {"kernel_events_per_sec": 1.0}, "python": "3.0.0",
            "impl": "CPython", "engine": {"name": "exact"}, "quick": False,
        }


def test_table_and_exit_code_use_one_tolerance(tmp_path, capsys):
    # A 1% drift at --tolerance 0.05 reads "match" and exits 0; at the
    # suite's exact default it reads DRIFT and exits 1.
    document = json.loads((REPO_ROOT / "BENCH_scaleout.json").read_text())
    point = document["points"][0]
    point["elapsed_ns"] = round(point["elapsed_ns"] * 1.01)
    baseline = tmp_path / "BENCH_scaleout.json"
    baseline.write_text(json.dumps(document))
    argv = ["bench", "scaleout", "--quick", "--check",
            "--baseline", str(baseline)]
    assert main([*argv, "--tolerance", "0.05"]) == 0
    assert "DRIFT" not in capsys.readouterr().out
    assert main(argv) == 1
    assert "DRIFT elapsed_ns" in capsys.readouterr().out


def _toy_suite(**overrides) -> BenchSuite:
    fields = dict(
        name="toy", bench_file="BENCH_toy.json", run=lambda quick: {},
        rows="points", key=("point",), checks={"*": {"n": EXACT}},
        columns=("n",),
    )
    fields.update(overrides)
    return BenchSuite(**fields)


class TestChecks:
    def test_rows_only_one_side_has_are_skipped(self):
        suite = _toy_suite()
        current = {"points": [{"point": "a", "n": 1}, {"point": "b", "n": 2}]}
        baseline = {"points": [{"point": "a", "n": 1}, {"point": "c", "n": 9}]}
        assert check_regression(suite, current, baseline) == []
        text = render_comparison(suite, current, baseline)
        assert "match" in text and "new" in text

    def test_exact_drift_names_row_and_field(self):
        suite = _toy_suite()
        current = {"points": [{"point": "a", "n": 105}]}
        baseline = {"points": [{"point": "a", "n": 100}]}
        assert check_regression(suite, current, baseline) == [
            "a: n 105 != baseline 100"
        ]
        assert check_regression(suite, current, baseline, tolerance=0.05) == []
        assert "DRIFT n" in render_comparison(suite, current, baseline)

    @pytest.mark.parametrize("side", ["baseline", "this run"])
    def test_a_missing_checked_field_fails(self, side):
        # A baseline row that lost a checked field (or a run that stopped
        # emitting one) must not pass --check by comparing nothing.
        suite = _toy_suite()
        full = {"suite": "toy", "points": [{"point": "a", "n": 1}]}
        lost = {"suite": "toy", "points": [{"point": "a"}]}
        current, baseline = (full, lost) if side == "baseline" else (lost, full)
        assert baseline_mismatch(suite, current, baseline) == []
        assert check_regression(suite, current, baseline) == [
            f"a: n missing from {side}"
        ]
        assert "DRIFT n" in render_comparison(suite, current, baseline)

    def test_render_judges_at_the_given_tolerance(self):
        suite = _toy_suite()
        current = {"points": [{"point": "a", "n": 105}]}
        baseline = {"points": [{"point": "a", "n": 100}]}
        assert "DRIFT n" in render_comparison(suite, current, baseline)
        loose = render_comparison(suite, current, baseline, tolerance=0.05)
        assert "match" in loose and "DRIFT" not in loose

    def test_per_row_checks_leave_other_fields_alone(self):
        suite = _toy_suite(checks={"a": {"n": EXACT}})
        current = {"points": [{"point": "a", "n": 1}, {"point": "b", "n": 2}]}
        baseline = {"points": [{"point": "a", "n": 1}, {"point": "b", "n": 3}]}
        assert check_regression(suite, current, baseline) == []

    def test_untagged_suites_compare_when_rows_are_shared(self):
        suite = _toy_suite()
        doc = {"suite": "toy", "points": [{"point": "a", "n": 1}]}
        assert baseline_mismatch(suite, doc, doc) == []
        for mangled in ({}, {"points": []}, {"points": 7}, {"points": ["x"]}):
            assert baseline_mismatch(suite, doc, mangled) == [
                "baseline shares no rows with this run"
            ]
        other = dict(doc, suite="scaleout")
        assert any("'scaleout' document" in m
                   for m in baseline_mismatch(suite, doc, other))


class TestServiceInvariants:
    @pytest.fixture
    def committed(self):
        return load_results(str(REPO_ROOT / "BENCH_service.json"))

    def test_committed_run_holds_them(self, committed):
        assert overlap_invariants(committed) == []
        assert check_regression(SERVICE_SUITE, committed, committed) == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("completed", 7, "expected exactly 6 simulations"),
            ("failed", 1, "1 jobs failed"),
            ("accepted", 7, "admission counters do not add up"),
            ("deduped", 11, "dedup leak"),
            ("cache_hits", 2, "answered 2 cache hits"),
            ("shed", 1, "unexpected shedding"),
        ],
    )
    def test_check_reports_each_violation(self, committed, field, value,
                                          message):
        broken = json.loads(json.dumps(committed))
        overlap = next(lvl for lvl in broken["levels"]
                       if lvl["level"] == "overlap")
        overlap[field] = value
        assert any(message in f for f in overlap_invariants(broken))
        # --check reports them even against a baseline with the same fault
        assert any(message in f
                   for f in check_regression(SERVICE_SUITE, broken, broken))
