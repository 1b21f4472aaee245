"""Tests for the figure sweeps and headline computation (small params)."""

import pytest

from repro.analysis import (
    FigureData,
    Series,
    ablation_arbitration,
    ablation_interrupt,
    ablation_locks,
    ablation_wrapper,
    compute_headlines,
    figure8_miss_penalty,
    scenario_figure,
)


@pytest.fixture(scope="module")
def small_bcs_figure():
    return scenario_figure(
        "bcs", line_counts=(2, 8), exec_times=(1,), iterations=3
    )


class TestFigureData:
    def test_render_aligns_series(self, small_bcs_figure):
        text = small_bcs_figure.render()
        assert "software et=1" in text
        assert "proposed et=1" in text

    def test_xs_union(self):
        data = FigureData(
            "t", "x", "y",
            [Series("a", {1: 0.5}), Series("b", {2: 0.7})],
        )
        assert data.xs() == [1, 2]

    def test_get_series_point(self, small_bcs_figure):
        value = small_bcs_figure.get("proposed et=1", 8)
        assert 0 < value < 1

    def test_get_unknown_series(self, small_bcs_figure):
        with pytest.raises(KeyError):
            small_bcs_figure.get("nonsense", 8)

    def test_missing_point_renders_dash(self):
        data = FigureData("t", "x", "y", [Series("a", {1: 0.5}), Series("b", {2: 1.0})])
        assert "-" in data.render()


class TestFigureShapes:
    def test_bcs_caching_beats_disabled(self, small_bcs_figure):
        for series in small_bcs_figure.series:
            for ratio in series.points.values():
                assert ratio < 1.0  # both cached solutions beat uncached

    def test_bcs_proposed_beats_software(self, small_bcs_figure):
        for lines in (2, 8):
            proposed = small_bcs_figure.get("proposed et=1", lines)
            software = small_bcs_figure.get("software et=1", lines)
            assert proposed < software

    def test_bcs_gap_grows_with_lines(self, small_bcs_figure):
        gap_small = (
            small_bcs_figure.get("software et=1", 2)
            - small_bcs_figure.get("proposed et=1", 2)
        )
        gap_large = (
            small_bcs_figure.get("software et=1", 8)
            - small_bcs_figure.get("proposed et=1", 8)
        )
        assert gap_large > gap_small

    def test_figure8_bcs_improves_with_penalty(self):
        fig8 = figure8_miss_penalty(
            penalties=(13, 96), line_counts=(8,), scenarios=("bcs",), iterations=3
        )
        series = fig8.series[0]
        assert series.points[96] < series.points[13] < 1.0


class TestHeadlines:
    def test_all_five_computed(self):
        headlines = compute_headlines(iterations=2, lines=4)
        assert len(headlines) == 5
        for headline in headlines:
            assert headline.paper_value != 0


class TestAblations:
    def test_wrapper_ablation_finds_staleness(self):
        rows = ablation_wrapper(pairs=(("MESI", "MEI"),))
        by_label = {row.label: row.value for row in rows}
        assert by_label["MESI+MEI unwrapped: stale reads"] >= 1
        assert by_label["MESI+MEI wrapped: stale reads"] == 0

    def test_lock_ablation_rows(self):
        rows = ablation_locks(kinds=("swap", "hw"), lines=2, iterations=2)
        assert len(rows) == 2
        assert all(row.value > 0 for row in rows)

    def test_interrupt_ablation_monotone(self):
        rows = ablation_interrupt(entry_cycles=(1, 32), lines=4, iterations=3)
        assert rows[0].value < rows[1].value  # slower entry -> slower run

    def test_arbitration_ablation(self):
        rows = ablation_arbitration(lines=2, iterations=2)
        assert len(rows) == 2
