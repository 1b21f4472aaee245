"""Tests for the fabric sweep."""

from repro.exp.bench import check_regression, render_comparison
from repro.exp.scaleout import FABRICS, FABRICS_SUITE, run_point, run_suite


class TestRunPoint:
    def test_deterministic(self):
        a = run_point("fabrics", 4, "directory")
        b = run_point("fabrics", 4, "directory")
        assert a == b

    def test_point_shape(self):
        point = run_point("fabrics", 2, "split")
        assert point["masters"] == 2
        assert point["fabric"] == "split"
        assert point["elapsed_ns"] > 0
        assert point["bus_txns"] > 0
        assert point["busy_ticks"] > 0
        assert point["grant_spread"] >= 1.0

    def test_split_traffic_matches_atomic(self):
        # The coherence-identity invariant the suite documents: the
        # split bus moves timing only, never traffic volume.
        atomic = run_point("fabrics", 4, "atomic", accesses_per_master=12)
        split = run_point("fabrics", 4, "split", accesses_per_master=12)
        assert split["bus_txns"] == atomic["bus_txns"]
        assert split["elapsed_ns"] < atomic["elapsed_ns"]


class TestSuite:
    def test_quick_suite_covers_all_fabrics(self):
        doc = run_suite(
            "fabrics", quick=True, master_counts=(2,), accesses_per_master=8
        )
        assert {p["fabric"] for p in doc["points"]} == set(FABRICS)
        assert doc["schema"] == 1
        assert doc["suite"] == "fabrics"

    def test_regression_check_exact_by_default(self):
        doc = run_suite("fabrics", master_counts=(2,), accesses_per_master=8)
        assert check_regression(FABRICS_SUITE, doc, doc) == []
        drifted = {
            **doc,
            "points": [
                {**p, "elapsed_ns": p["elapsed_ns"] + 1}
                for p in doc["points"]
            ],
        }
        failures = check_regression(FABRICS_SUITE, drifted, doc)
        assert len(failures) == len(doc["points"])

    def test_render_mentions_every_fabric_and_the_headline(self):
        doc = run_suite("fabrics", master_counts=(2,), accesses_per_master=8)
        text = render_comparison(FABRICS_SUITE, doc, doc)
        for fabric in FABRICS:
            assert fabric in text
        assert text.count(" match") == len(doc["points"])
        assert "headline" in text
