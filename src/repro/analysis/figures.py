"""Figure regeneration: the data behind Figures 5-8.

Each ``figure*`` function runs the microbenchmark sweep the paper plots
and returns a :class:`FigureData` whose series mirror the paper's
curves (execution-time ratios against the cache-disabled baseline for
Figures 5-7, against the software solution for Figure 8).  ``render()``
prints the same rows/series as the figures, as text.

These sweeps are complete simulations.  ``repro bench paper``
(:mod:`repro.exp.paper`), the one path that regenerates the paper,
calls them with the default (paper) parameters and one shared runner;
tests use reduced ones.

Every sweep goes through :mod:`repro.exp`: the figure functions build a
flat list of :class:`~repro.exp.MicrobenchJob` objects and hand it to a
:class:`~repro.exp.SweepRunner` (pass one via ``runner=`` to fan jobs
out over a worker pool, cache results on disk, or share one runner's
results across figures; the default is a fresh serial, uncached
runner).  Results come back in submission order, so parallel and
serial runs produce identical figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exp import MicrobenchJob, SweepRunner, run_jobs
from ..workloads.microbench import MicrobenchSpec

__all__ = [
    "Series",
    "FigureData",
    "figure5_wcs",
    "figure6_bcs",
    "figure7_tcs",
    "figure8_miss_penalty",
    "scenario_figure",
    "DEFAULT_LINE_COUNTS",
    "DEFAULT_EXEC_TIMES",
    "DEFAULT_PENALTIES",
]

DEFAULT_LINE_COUNTS = (1, 2, 4, 8, 16, 32)
DEFAULT_EXEC_TIMES = (1, 2, 4)
DEFAULT_PENALTIES = (13, 26, 48, 72, 96)


@dataclass
class Series:
    """One curve: a label and its y value per x."""

    name: str
    points: Dict[int, float] = field(default_factory=dict)


@dataclass
class FigureData:
    """A figure's worth of curves plus axis metadata."""

    title: str
    xlabel: str
    ylabel: str
    series: List[Series]
    notes: str = ""

    def xs(self) -> List[int]:
        """Sorted union of x values across series."""
        values = set()
        for s in self.series:
            values.update(s.points)
        return sorted(values)

    def get(self, series_name: str, x: int) -> float:
        """Value of one series at one x (KeyError when absent)."""
        for s in self.series:
            if s.name == series_name:
                return s.points[x]
        raise KeyError(series_name)

    def render(self) -> str:
        """The figure as an aligned text table (x columns, series rows)."""
        xs = self.xs()
        name_width = max((len(s.name) for s in self.series), default=8)
        header = f"{'':{name_width}s} | " + " ".join(f"{x:>7d}" for x in xs)
        rule = "-" * len(header)
        rows = [self.title, f"x: {self.xlabel}   y: {self.ylabel}", header, rule]
        for s in self.series:
            cells = " ".join(
                f"{s.points[x]:7.3f}" if x in s.points else f"{'-':>7s}"
                for x in xs
            )
            rows.append(f"{s.name:{name_width}s} | {cells}")
        if self.notes:
            rows.append(self.notes)
        return "\n".join(rows)


def scenario_figure(
    scenario: str,
    line_counts: Sequence[int] = DEFAULT_LINE_COUNTS,
    exec_times: Sequence[int] = DEFAULT_EXEC_TIMES,
    iterations: int = 8,
    title: str = "",
    runner: Optional[SweepRunner] = None,
    **spec_overrides,
) -> FigureData:
    """Figures 5-7 generic sweep: ratio of execution time vs disabled.

    One "software" and one "proposed" series per exec_time, normalised
    per (lines, exec_time) cell to the cache-disabled run — exactly the
    y axis of Figures 5-7.
    """
    series: Dict[str, Series] = {}
    for exec_time in exec_times:
        for solution in ("software", "proposed"):
            name = f"{solution} et={exec_time}"
            series[name] = Series(name)
    jobs: List[MicrobenchJob] = []
    slots: List[Tuple[int, int, str]] = []
    for exec_time in exec_times:
        for lines in line_counts:
            base_spec = MicrobenchSpec(
                scenario=scenario, solution="disabled", lines=lines,
                exec_time=exec_time, iterations=iterations, **spec_overrides,
            )
            for solution in ("disabled", "software", "proposed"):
                spec = (
                    base_spec if solution == "disabled"
                    else base_spec.with_(solution=solution)
                )
                jobs.append(MicrobenchJob(spec))
                slots.append((exec_time, lines, solution))
    elapsed = {
        slot: result["elapsed_ns"]
        for slot, result in zip(slots, run_jobs(jobs, runner))
    }
    for exec_time in exec_times:
        for lines in line_counts:
            baseline = elapsed[(exec_time, lines, "disabled")]
            for solution in ("software", "proposed"):
                series[f"{solution} et={exec_time}"].points[lines] = (
                    elapsed[(exec_time, lines, solution)] / baseline
                )
    return FigureData(
        title=title or f"{scenario.upper()}: execution-time ratio vs cache-disabled",
        xlabel="# of accessed cache lines per iteration",
        ylabel="ratio of execution time (1.0 = data cache disabled)",
        series=list(series.values()),
    )


def figure5_wcs(**kwargs) -> FigureData:
    """Figure 5: worst-case scenario sweep."""
    kwargs.setdefault("title", "Figure 5 - Worst case results")
    return scenario_figure("wcs", **kwargs)


def figure6_bcs(**kwargs) -> FigureData:
    """Figure 6: best-case scenario sweep."""
    kwargs.setdefault("title", "Figure 6 - Best case results")
    return scenario_figure("bcs", **kwargs)


def figure7_tcs(**kwargs) -> FigureData:
    """Figure 7: typical-case scenario sweep."""
    kwargs.setdefault("title", "Figure 7 - Typical case results")
    return scenario_figure("tcs", **kwargs)


def figure8_miss_penalty(
    penalties: Sequence[int] = DEFAULT_PENALTIES,
    line_counts: Sequence[int] = (1, 32),
    scenarios: Sequence[str] = ("wcs", "tcs", "bcs"),
    exec_time: int = 1,
    iterations: int = 8,
    runner: Optional[SweepRunner] = None,
    **spec_overrides,
) -> FigureData:
    """Figure 8: proposed/software ratio as the miss penalty grows.

    x is the burst miss penalty in bus cycles (13 is the Table 4
    default); y is proposed execution time relative to the software
    solution at the same penalty (the paper's Fig 8 normalisation).
    """
    data = FigureData(
        title="Figure 8 - Results according to miss penalty",
        xlabel="miss penalty (bus cycles per 8-word burst)",
        ylabel="execution-time ratio (1.0 = software solution)",
        series=[],
    )
    jobs: List[MicrobenchJob] = []
    slots: List[Tuple[str, int, int, str]] = []
    for scenario in scenarios:
        for lines in line_counts:
            for penalty in penalties:
                spec = MicrobenchSpec(
                    scenario=scenario, solution="software", lines=lines,
                    exec_time=exec_time, iterations=iterations,
                    **spec_overrides,
                )
                for solution in ("software", "proposed"):
                    jobs.append(
                        MicrobenchJob(
                            spec.with_(solution=solution), miss_penalty=penalty
                        )
                    )
                    slots.append((scenario, lines, penalty, solution))
    elapsed = {
        slot: result["elapsed_ns"]
        for slot, result in zip(slots, run_jobs(jobs, runner))
    }
    for scenario in scenarios:
        for lines in line_counts:
            series = Series(f"{scenario} lines={lines}")
            for penalty in penalties:
                series.points[penalty] = (
                    elapsed[(scenario, lines, penalty, "proposed")]
                    / elapsed[(scenario, lines, penalty, "software")]
                )
            data.series.append(series)
    return data
