"""EXPERIMENTS.md quotes the committed runs, not stale ones.

The Figure 5-8 blocks are rebuilt with :meth:`FigureData.render` from
``BENCH_paper.json``'s ``fig5``-``fig8`` rows, the headline table's
"Measured" cells from its ``headlines`` rows at 2 decimals, the Tables
2/3 state columns from its ``<mode> <step> states`` rows, the Figure 4
outcomes from its ``fig4`` rows, and the cross-engine table from
``BENCH_hotpath.json``'s engine metrics.  Re-recording a baseline
without updating the document (or the reverse) fails here.
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


def test_table_state_columns_match_the_committed_rows(rows, sections):
    block = re.search(r"```\n(.*?)```", _section(sections, "Tables 2 and 3"), re.S).group(1)
    documented = {}
    # one paragraph per table; each step line: unwrapped left, wrapped right
    for table, paragraph in zip(("table2", "table3"), block.strip().split("\n\n")):
        for line in paragraph.splitlines()[1:]:
            steps = re.findall(r"([a-d]): P\d \w+ +P1:(\w) +P2:(\w)", line)
            for mode, (step, p1, p2) in zip(("unwrapped", "wrapped"), steps):
                documented[f"{table} {mode} {step} states"] = f"{p1},{p2}"
    assert documented == {
        f"{row['experiment']} {row['point']}": row["value"]
        for row in rows
        if row["experiment"] in ("table2", "table3") and row["point"].endswith(" states")
    }


def test_fig4_outcomes_match_the_committed_rows(rows, sections):
    documented = re.findall(
        r"^\[(\S+) *\] (HARDWARE DEADLOCK|completed in)\b",
        _section(sections, "Figure 4 "),
        re.MULTILINE,
    )
    assert documented == [
        (row["point"].split()[0], "HARDWARE DEADLOCK" if row["value"] else "completed in")
        for row in rows
        if row["experiment"] == "fig4"
    ]


def test_cross_engine_table_quotes_the_committed_hotpath_run(sections):
    metrics = load_results(str(REPO_ROOT / "BENCH_hotpath.json"))["metrics"]
    table = _section(sections, "Beyond the paper: cross-engine")
    exact = metrics["engine_exact_accesses_per_sec"]
    batch = metrics["engine_batch_accesses_per_sec"]
    speedup = metrics["engine_batch_speedup_vs_exact"]
    assert f"| exact | false | {exact:,.1f} | 1.0x | yes |" in table
    assert f"| batch | false | {batch:,.1f} | {speedup:.1f}x | yes |" in table
