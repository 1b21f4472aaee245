"""Tests for the scale-out (service discipline) sweep."""

from repro.exp.bench import check_regression, render_comparison
from repro.exp.scaleout import DISCIPLINES, SCALEOUT_SUITE, run_point, run_suite


class TestRunPoint:
    def test_deterministic(self):
        a = run_point("scaleout", 4, "round-robin")
        b = run_point("scaleout", 4, "round-robin")
        assert a == b

    def test_point_shape(self):
        point = run_point("scaleout", 2, "fcfs")
        assert point["masters"] == 2
        assert point["discipline"] == "fcfs"
        assert point["elapsed_ns"] > 0
        assert point["bus_txns"] > 0
        assert point["grant_spread"] >= 1.0


class TestSuite:
    def test_quick_suite_covers_all_disciplines(self):
        doc = run_suite(
            "scaleout", quick=True, master_counts=(2,), accesses_per_master=8
        )
        assert {p["discipline"] for p in doc["points"]} == set(DISCIPLINES)
        assert doc["schema"] == 1

    def test_regression_check_exact_by_default(self):
        doc = run_suite("scaleout", master_counts=(2,), accesses_per_master=8)
        assert check_regression(SCALEOUT_SUITE, doc, doc) == []
        drifted = {
            **doc,
            "points": [
                {**p, "elapsed_ns": p["elapsed_ns"] + 1}
                for p in doc["points"]
            ],
        }
        failures = check_regression(SCALEOUT_SUITE, drifted, doc)
        assert len(failures) == len(doc["points"])

    def test_render_mentions_every_point(self):
        doc = run_suite("scaleout", master_counts=(2,), accesses_per_master=8)
        text = render_comparison(SCALEOUT_SUITE, doc, doc)
        for discipline in DISCIPLINES:
            assert discipline in text
        assert text.count(" match") == len(doc["points"])
