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
from repro.exp.paper import BCS_32, BCS_96, WCS_ET4, paper_invariants
from repro.exp.paper import SUITE as PAPER_SUITE
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


class TestHotpathInvariant:
    def test_committed_run_holds_it(self):
        committed = load_results(str(REPO_ROOT / "BENCH_hotpath.json"))
        assert hotpath.batch_faster(committed) == []

    def test_batch_no_faster_than_exact_fails_check(self):
        committed = load_results(str(REPO_ROOT / "BENCH_hotpath.json"))
        broken = json.loads(json.dumps(committed))
        broken["metrics"]["engine_batch_speedup_vs_exact"] = 1.0
        assert any(
            "batch engine must be faster" in failure
            for failure in check_regression(hotpath.SUITE, broken, broken)
        )


def _times(experiment, point, factor):
    """``factor`` times another row's committed value."""
    return lambda value: value(experiment, point) * factor


#: (experiment, point, new value, message): each pushes one row of the
#: committed paper run past one bound of one claim
PAPER_BREAKS = [
    ("fig4", "none deadlocked", False, "fig4: cached locks must deadlock"),
    ("fig4", "uncached-locks deadlocked", True, "uncached-locks must not"),
    ("fig4", "lock-register deadlocked", True, "lock-register must not"),
    ("fig4", "bakery deadlocked", True, "bakery must not deadlock"),
    ("fig5", "software et=2 lines=8", 1.0,
     "fig5 et=2 lines=8: caching must beat cache-disabled"),
    ("fig5", "proposed et=1 lines=4", _times("fig5", "software et=1 lines=4", 1.021),
     "fig5 et=1 lines=4: proposed 0.445 must stay below 1.02x software"),
    ("fig5", "proposed et=4 lines=32", _times("fig5", "proposed et=1 lines=32", 1.0),
     "fig5: proposed at 32 lines must improve with exec_time"),
    ("fig6", "proposed et=2 lines=16", _times("fig6", "software et=2 lines=16", 1.0),
     "fig6 et=2 lines=16: proposed 0.410 must beat software"),
    ("fig6", "proposed et=1 lines=8", 0.25, "fig6: bcs speedup must not fall"),
    ("fig6", "proposed et=1 lines=32", _times("fig6", "software et=1 lines=32", 0.71),
     "fig6: 0.30 <= bcs_speedup_32 (0.290) <= 0.50"),
    ("fig6", "proposed et=1 lines=32", _times("fig6", "software et=1 lines=32", 0.49),
     "fig6: 0.30 <= bcs_speedup_32 (0.510) <= 0.50"),
    ("fig7", "proposed et=4 lines=2", _times("fig7", "software et=4 lines=2", 1.0),
     "fig7 et=4 lines=2: proposed"),
    ("fig7", "proposed et=1 lines=32", _times("fig7", "software et=1 lines=32", 0.91),
     "fig7: 0.10 <= tcs_speedup_32 (0.090) <= 0.45"),
    ("fig7", "proposed et=1 lines=32", _times("fig7", "software et=1 lines=32", 0.54),
     "fig7: 0.10 <= tcs_speedup_32 (0.460) <= 0.45"),
    ("fig8", "bcs lines=1 penalty=96", _times("fig8", "bcs lines=1 penalty=13", 1.0),
     "fig8 bcs lines=1: ratio at 96 cycles"),
    ("fig8", "bcs lines=32 penalty=96", _times("fig8", "bcs lines=32 penalty=13", 1.0),
     "fig8 bcs lines=32: ratio at 96 cycles"),
    ("fig8", "tcs lines=1 penalty=13", _times("fig8", "tcs lines=1 penalty=96", 1.0),
     "fig8 tcs lines=1: ratio at 96 cycles"),
    ("fig8", "tcs lines=32 penalty=96", 0.7, "fig8 tcs lines=32: ratio at 96 cycles"),
    ("fig8", "bcs lines=32 penalty=96", 0.41,
     "fig8: 0.6 <= bcs_speedup_32_at_96 (0.590) <= 0.85"),
    ("fig8", "bcs lines=32 penalty=96", 0.14,
     "fig8: 0.6 <= bcs_speedup_32_at_96 (0.860) <= 0.85"),
    ("fig8", "wcs lines=32 penalty=48", 0.89, "0.9 <= wcs_ratio_32 at 48 cycles"),
    ("fig8", "wcs lines=32 penalty=13", 1.06, "0.9 <= wcs_ratio_32 at 13 cycles"),
    ("headlines", BCS_32, 28.22, "must be within 10 points of the paper's 38.22 %"),
    ("headlines", BCS_32, 48.22, "must be within 10 points of the paper's 38.22 %"),
    ("headlines", BCS_96, 66.0, "must be within 10 points of the paper's 76.0 %"),
    ("headlines", BCS_96, 86.0, "must be within 10 points of the paper's 76.0 %"),
    ("headlines", WCS_ET4, 50.0, "must exceed 50 %"),
    ("table2", "unwrapped stale_reads", 0, "table2: unwrapped must read stale"),
    ("table2", "unwrapped d states", "S,I", "table2: unwrapped step d must reach S,M"),
    ("table2", "wrapped stale_reads", 1, "table2: wrapped must read no stale"),
    ("table2", "wrapped violations", 1, "table2: wrapped must record no violations"),
    ("table2", "wrapped system_protocol", "MESI",
     "table2: wrapped system protocol must be MEI"),
    ("table2", "wrapped b states", "S,E", "table2: no wrapped step may reach S"),
    ("table3", "unwrapped stale_reads", 2, "table3: unwrapped must read stale"),
    ("table3", "unwrapped b states", "S,S", "table3: unwrapped step b must reach S,E"),
    ("table3", "wrapped stale_reads", 1, "table3: wrapped must read no stale"),
    ("table3", "wrapped system_protocol", "MESI",
     "table3: wrapped system protocol must be MSI"),
    ("table3", "wrapped c states", "E,I", "table3: no wrapped step may reach E"),
    ("ablation-wrapper", "MESI+MEI unwrapped: stale reads", 0,
     "MESI+MEI unwrapped must read stale data"),
    ("ablation-wrapper", "MESI+MEI wrapped: stale reads", 1,
     "MESI+MEI wrapped must read no stale data"),
    ("ablation-wrapper", "MSI+MESI unwrapped: stale reads", 0,
     "MSI+MESI unwrapped must read stale data"),
    ("ablation-wrapper", "MSI+MESI wrapped: stale reads", 1,
     "MSI+MESI wrapped must read no stale data"),
    ("ablation-wrapper", "MESI+MOESI wrapped: stale reads", 1,
     "MESI+MOESI wrapped must read no stale data"),
    ("ablation-interrupt", "WCS proposed, interrupt entry = 8 cycles", 171_000,
     "ablation-interrupt: run time must not fall"),
    ("ablation-locks", "TCS proposed, hw lock", 121_021,
     "hw lock (121021 ns) must be no slower"),
    ("ablation-locks", "TCS proposed, bakery lock", 121_000,
     "must be no slower than bakery lock (121000 ns)"),
    ("ablation-arbitration", "WCS proposed, fixed arbitration", 0,
     "ablation-arbitration: fixed must take simulated time"),
    ("ablation-arbitration", "WCS proposed, round-robin arbitration", 0,
     "ablation-arbitration: round-robin must take simulated time"),
    ("ablation-capacity", "fits proposed",
     _times("ablation-capacity", "fits software", 0.75),
     "speedup when the block fits (25.0 %) must exceed 25 %"),
    ("ablation-capacity", "thrashes proposed",
     _times("ablation-capacity", "thrashes software", 0.79),
     "speedup when it thrashes (21.0 %) must be under half"),
    ("ext-dma", "hardware_coherence=True copied", 0,
     "a coherent DMA must copy the dirty word"),
    ("ext-dma", "hardware_coherence=False copied", 0xC0DE,
     "an incoherent DMA must copy stale memory"),
    ("ext-update", "DRAGON fills", 3, "DRAGON must fill twice"),
    ("ext-update", "DRAGON updates", 11, "DRAGON must update 12 times"),
    ("ext-update", "MESI updates", 1, "MESI must not update"),
    ("ext-update", "DRAGON elapsed_ns", _times("ext-update", "MESI elapsed_ns", 1),
     "DRAGON must finish before MESI"),
    ("ext-scaling", "3 processors proposed", 130_000,
     "ext-scaling: proposed time must not fall"),
    ("kernel-reduction", "proposed correct", False,
     "kernel-reduction: proposed must compute the reference result"),
    ("kernel-jacobi", "software correct", False,
     "kernel-jacobi: software must compute the reference result"),
    ("kernel-token-ring", "3 cores correct", False,
     "kernel-token-ring: 3 cores must compute the reference result"),
    ("kernel-reduction", "software elapsed_ns",
     _times("kernel-reduction", "disabled elapsed_ns", 1),
     "kernel-reduction: proposed (14260) < software"),
    ("kernel-reduction", "proposed elapsed_ns",
     _times("kernel-reduction", "software elapsed_ns", 1),
     "kernel-reduction: proposed (15440) < software"),
    ("kernel-jacobi", "proposed elapsed_ns",
     _times("kernel-jacobi", "software elapsed_ns", 1),
     "kernel-jacobi: proposed (61760) < software"),
    ("trace-knee", "footprint=128 hit_rate", 0.995,
     "trace-knee: hit rate must not rise"),
    ("trace-knee", "footprint=64 hit_rate", 0.95, "must hit > 0.95 (0.950)"),
    ("trace-knee", "footprint=1024 hit_rate", 0.5, "must hit < 0.5 (0.500)"),
    ("trace-stride", "stride=8 hit_rate", 0.9, "word stride must hit the most"),
    ("trace-stride", "stride=32 hit_rate", 0.1, "stride 32 must never hit"),
    ("trace-stride", "stride=64 hit_rate", 0.1, "stride 64 must never hit"),
    ("trace-sharing", "producer-consumer fills",
     _times("trace-sharing", "private fills", 1),
     "trace-sharing: producer-consumer fills"),
    ("trace-sharing", "producer-consumer elapsed_ns",
     _times("trace-sharing", "private elapsed_ns", 1),
     "trace-sharing: producer-consumer elapsed_ns"),
]


class TestPaperInvariants:
    @pytest.fixture
    def committed(self):
        return load_results(str(REPO_ROOT / "BENCH_paper.json"))

    def test_committed_run_holds_them(self, committed):
        assert paper_invariants(committed) == []
        assert check_regression(PAPER_SUITE, committed, committed) == []

    @pytest.mark.parametrize(
        "experiment, point, value, message", PAPER_BREAKS,
        ids=[f"{i}-{row[0]}" for i, row in enumerate(PAPER_BREAKS)],
    )
    def test_check_reports_each_broken_claim(self, committed, experiment,
                                             point, value, message):
        broken = json.loads(json.dumps(committed))
        rows = {(row["experiment"], row["point"]): row for row in broken["rows"]}
        if callable(value):
            value = value(lambda e, p: rows[(e, p)]["value"])
        rows[(experiment, point)]["value"] = value
        failures = check_regression(PAPER_SUITE, broken, broken)
        assert any(message in failure for failure in failures), failures

    def test_a_missing_row_fails(self, committed):
        broken = dict(committed, rows=[
            row for row in committed["rows"]
            if (row["experiment"], row["point"]) != ("fig8", "wcs lines=32 penalty=72")
        ])
        assert paper_invariants(broken) == [
            "row fig8@wcs lines=32 penalty=72 is missing"
        ]

    def test_drift_from_the_baseline_names_row_and_field(self, committed):
        baseline = json.loads(json.dumps(committed))
        row = next(row for row in baseline["rows"] if row["experiment"] == "ext-update")
        row["value"] += 20
        assert check_regression(PAPER_SUITE, committed, baseline) == [
            f"ext-update@{row['point']}: value {row['value'] - 20:,} != "
            f"baseline {row['value']:,}"
        ]
