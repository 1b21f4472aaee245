"""Tests for the bus-utilization analysis."""

import pytest

from repro.analysis.utilization import bus_utilization
from repro.workloads import MicrobenchSpec, run_microbench


@pytest.fixture(scope="module")
def wcs_result():
    return run_microbench(
        MicrobenchSpec("wcs", "proposed", lines=4, iterations=4)
    )


class TestFromResult:
    def test_utilization_bounded(self, wcs_result):
        util = bus_utilization(wcs_result)
        assert 0.0 < util.utilization <= 1.0
        assert util.busy_ns <= util.elapsed_ns

    def test_masters_cover_busy_time(self, wcs_result):
        util = bus_utilization(wcs_result)
        assert set(util.by_master_ns) == {"ppc755", "arm920t"}
        assert sum(util.by_master_ns.values()) == util.busy_ns
        total_share = sum(
            util.master_share(m) for m in util.by_master_ns
        )
        assert total_share == pytest.approx(1.0)

    def test_traffic_classes_populated(self, wcs_result):
        util = bus_utilization(wcs_result)
        assert util.by_class.get("fills", 0) > 0
        assert util.by_class.get("writebacks", 0) > 0
        assert util.by_class.get("uncached", 0) > 0  # lock-turn traffic

    def test_render_mentions_every_master(self, wcs_result):
        text = bus_utilization(wcs_result).render()
        assert "ppc755" in text and "arm920t" in text
        assert "%" in text


class TestFromRawStats:
    def test_manual_stats(self):
        stats = {
            "bus.busy_ticks": 500,
            "bus.busy.a": 300,
            "bus.busy.b": 200,
            "bus.txns": 10,
            "bus.retries": 1,
            "bus.op.read-line": 4,
            "bus.op.write-line": 2,
            "bus.op.swap": 4,
        }
        util = bus_utilization(stats, elapsed_ns=1000)
        assert util.utilization == pytest.approx(0.5)
        assert util.master_share("a") == pytest.approx(0.6)
        assert util.by_class == {"fills": 4, "writebacks": 2, "locks": 4}

    def test_empty_stats(self):
        util = bus_utilization({}, elapsed_ns=0)
        assert util.utilization == 0.0
        assert util.master_share("x") == 0.0


class TestScenarioContrast:
    def test_disabled_is_most_bus_bound(self):
        specs = {
            solution: run_microbench(
                MicrobenchSpec("bcs", solution, lines=8, iterations=4)
            )
            for solution in ("disabled", "proposed")
        }
        disabled = bus_utilization(specs["disabled"])
        proposed = bus_utilization(specs["proposed"])
        # Uncached shared data hammers the bus; warm caches barely touch it.
        assert disabled.utilization > proposed.utilization
