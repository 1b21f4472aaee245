"""EXPERIMENTS.md quotes the committed paper run, not a stale one.

The Figure 5-8 blocks are rebuilt with :meth:`FigureData.render` from
``BENCH_paper.json``'s ``fig5``-``fig8`` rows, and the headline table's
"Measured" cells from its ``headlines`` rows at 2 decimals.  Re-recording
the baseline without updating the document (or the reverse) fails here.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import FigureData, Series
from repro.exp.bench import load_results

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def rows():
    document = load_results(str(REPO_ROOT / "BENCH_paper.json"))
    return document["rows"]


@pytest.fixture(scope="module")
def sections():
    """EXPERIMENTS.md's ``## `` sections by heading."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    parts = re.split(r"^## ", text, flags=re.MULTILINE)[1:]
    return {part.split("\n", 1)[0]: part for part in parts}


def _section(sections, prefix):
    matches = [body for heading, body in sections.items() if heading.startswith(prefix)]
    assert len(matches) == 1, f"one EXPERIMENTS.md section must start {prefix!r}"
    return matches[0]


def _figure(rows, experiment):
    """The figure behind ``experiment``'s rows (points ``<series> <x>=<n>``)."""
    series = {}
    for row in rows:
        if row["experiment"] == experiment:
            name, x = row["point"].rsplit(" ", 1)
            series.setdefault(name, Series(name)).points[int(x.split("=")[1])] = row["value"]
    return FigureData("", "", "", list(series.values()))


@pytest.mark.parametrize("number", [5, 6, 7, 8])
def test_figure_block_matches_the_committed_rows(rows, sections, number):
    rendered = _figure(rows, f"fig{number}").render().splitlines()
    # header and series rows; the title, axis and rule lines stay out
    block = "\n".join([rendered[2], *rendered[4:]])
    assert f"```\n{block}\n```" in _section(sections, f"Figure {number} ")


def test_headline_measured_cells_match_the_committed_rows(rows, sections):
    table = [
        line for line in _section(sections, "Headline claims").splitlines()
        if line.startswith("| ") and not line.startswith("| Claim")
    ]
    measured = [re.search(r"\d+\.\d+", line.split("|")[3]).group() for line in table]
    assert measured == [
        f"{row['value']:.2f}" for row in rows if row["experiment"] == "headlines"
    ]
