"""Hot-path suite plumbing: engine tagging and like-for-like checks.

``--check`` compares wall-clock numbers, so it must refuse to compare
runs that are not like-for-like: a different engine, a different
native/pure split, or a different Python implementation each make the
baseline meaningless.  Mismatch is exit code 2 — distinct from a real
regression (1) — so CI can tell "slower" from "not comparable".
"""

import json

import pytest

from repro.__main__ import main
from repro.exp import hotpath
from repro.exp.bench import baseline_mismatch


@pytest.fixture(scope="module")
def quick_doc():
    return hotpath.run_suite(quick=True, repeats=1)


class TestRunSuite:
    def test_document_is_engine_tagged(self, quick_doc):
        assert quick_doc["schema"] == 2
        assert quick_doc["engine"]["name"] == "exact"
        assert isinstance(quick_doc["engine"]["version"], int)
        assert isinstance(quick_doc["impl"], str)
        metrics = quick_doc["metrics"]
        assert metrics["engine_batch_speedup_vs_exact"] > 1.0
        assert metrics["engine_batch_accesses_per_sec"] > (
            metrics["engine_exact_accesses_per_sec"]
        )


class TestBaselineMismatch:
    def test_identical_runs_are_comparable(self, quick_doc):
        assert baseline_mismatch(hotpath.SUITE, quick_doc, quick_doc) == []

    def test_engine_name_mismatch(self, quick_doc):
        other = dict(quick_doc, engine=dict(quick_doc["engine"],
                                            name="batch"))
        assert any("engine" in m for m in
                   baseline_mismatch(hotpath.SUITE, quick_doc, other))

    def test_native_flag_mismatch(self, quick_doc):
        other = dict(quick_doc, engine=dict(quick_doc["engine"], native=True))
        assert baseline_mismatch(hotpath.SUITE, quick_doc, other) != []

    def test_python_implementation_mismatch(self, quick_doc):
        other = dict(quick_doc, impl="PyPy")
        assert any("PyPy" in m for m in
                   baseline_mismatch(hotpath.SUITE, quick_doc, other))

    def test_legacy_schema1_baseline_is_comparable(self, quick_doc):
        # Pre-engine baselines carry neither engine nor impl; absence
        # must not read as a mismatch or every CI run would exit 2.
        legacy = {k: v for k, v in quick_doc.items()
                  if k not in ("engine", "impl", "schema")}
        assert baseline_mismatch(hotpath.SUITE, quick_doc, legacy) == []


class TestCliCheck:
    def test_mismatched_baseline_exits_2(self, quick_doc, tmp_path, capsys):
        # A native-build baseline against this pure-Python run.
        baseline = tmp_path / "BENCH_hotpath.json"
        doc = dict(quick_doc, engine=dict(quick_doc["engine"],
                                          native=not quick_doc["engine"]["native"]))
        baseline.write_text(json.dumps(doc))
        code = main(["bench", "hotpath", "--quick", "--repeats", "1",
                     "--check", "--baseline", str(baseline)])
        assert code == 2
        err = capsys.readouterr().err
        assert "re-record the baseline" in err

    def test_matched_baseline_passes(self, quick_doc, tmp_path, capsys):
        baseline = tmp_path / "BENCH_hotpath.json"
        baseline.write_text(json.dumps(quick_doc))
        # Huge tolerance: this asserts the like-for-like gate opens,
        # not anything about this machine's timing stability.
        code = main(["bench", "hotpath", "--quick", "--repeats", "1",
                     "--check", "--baseline", str(baseline),
                     "--tolerance", "1000"])
        assert code == 0
        assert "no regression" in capsys.readouterr().out

    def test_real_regression_exits_1(self, quick_doc, tmp_path, capsys):
        # A like-for-like baseline 100x faster than this run: every rate
        # and the e2e wall time fall far below the 0.25 default floor.
        faster = {
            key: value / 100 if key in hotpath.TIME_METRICS else value * 100
            for key, value in quick_doc["metrics"].items()
        }
        baseline = tmp_path / "BENCH_hotpath.json"
        baseline.write_text(json.dumps(dict(quick_doc, metrics=faster)))
        code = main(["bench", "hotpath", "--quick", "--repeats", "1",
                     "--check", "--baseline", str(baseline)])
        assert code == 1
        err = capsys.readouterr().err
        for metric in hotpath.RATE_METRICS + hotpath.TIME_METRICS:
            assert f"FAIL {metric}: value" in err
