"""Export figure data to machine-readable formats.

Downstream users plot the regenerated figures with their own tools;
these helpers serialise :class:`~repro.analysis.figures.FigureData` to
CSV (one row per x, one column per series), JSON (axes + series), and
Markdown (for reports like EXPERIMENTS.md).
"""

from __future__ import annotations

import csv
import io
import json
from typing import List

from .figures import FigureData
from .headlines import Headline

__all__ = [
    "figure_to_csv",
    "figure_to_json",
    "figure_to_markdown",
    "headlines_to_markdown",
    "write_figure_csv",
]


def figure_to_csv(figure: FigureData) -> str:
    """CSV text: header ``x,<series...>``, one row per x value."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x"] + [series.name for series in figure.series])
    for x in figure.xs():
        row = [x]
        for series in figure.series:
            value = series.points.get(x)
            row.append("" if value is None else f"{value:.6f}")
        writer.writerow(row)
    return buffer.getvalue()


def write_figure_csv(figure: FigureData, path: str) -> None:
    """Write :func:`figure_to_csv` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(figure_to_csv(figure))


def figure_to_json(figure: FigureData) -> str:
    """JSON text with title/axes metadata and per-series point maps."""
    payload = {
        "title": figure.title,
        "xlabel": figure.xlabel,
        "ylabel": figure.ylabel,
        "notes": figure.notes,
        "series": [
            {
                "name": series.name,
                "points": {str(x): y for x, y in sorted(series.points.items())},
            }
            for series in figure.series
        ],
    }
    return json.dumps(payload, indent=2)


def figure_to_markdown(figure: FigureData, precision: int = 3) -> str:
    """A GitHub-flavoured Markdown table of the figure."""
    xs = figure.xs()
    header = "| series | " + " | ".join(str(x) for x in xs) + " |"
    rule = "|---" * (len(xs) + 1) + "|"
    rows = [f"**{figure.title}**", "", header, rule]
    for series in figure.series:
        cells = [
            f"{series.points[x]:.{precision}f}" if x in series.points else "-"
            for x in xs
        ]
        rows.append(f"| {series.name} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def headlines_to_markdown(headlines: List[Headline]) -> str:
    """Headline comparisons as a Markdown table."""
    rows = [
        "| claim | paper | measured |",
        "|---|---:|---:|",
    ]
    for headline in headlines:
        rows.append(
            f"| {headline.claim} | {headline.paper_value:.2f}{headline.unit} "
            f"| {headline.measured:.2f}{headline.unit} |"
        )
    return "\n".join(rows)
