"""One driver for the committed BENCH suites: ``repro bench <suite>``.

Four suites keep a committed baseline at the repository root:
``BENCH_hotpath.json`` (wall-clock rates of the simulation substrate),
``BENCH_scaleout.json`` and ``BENCH_fabrics.json`` (the simulated
N-master sweeps) and ``BENCH_service.json`` (admission counters of the
campaign service).  Each suite module supplies data only — a
:class:`BenchSuite` naming its ``run`` function, result file, rows,
checked fields and their comparison kind, table columns and default
tolerance.  This module owns every step that is the same for all of
them: finding and loading a baseline, refusing comparisons that are not
like for like, checking rows, rendering the table and writing the
result file.

A result document holds its rows under ``BenchSuite.rows``: a list of
dicts identified by the ``key`` fields, or a flat ``{name: value}`` map
(hotpath's ``metrics``), read as one ``{key[0]: name, "value": value}``
row per entry.  Checked fields compare by kind:

* ``EXACT`` — simulated quantities and counters must equal the
  baseline (numbers may drift by ``tolerance`` x baseline);
* ``RATE`` — wall-clock rates, larger is better: fail below
  ``1 - tolerance`` of the baseline;
* ``TIME`` — wall-clock durations, smaller is better: fail when the
  baseline/current speedup drops below ``1 - tolerance``.

A checked field missing from either side of a shared row is a failure,
never a skip.  Exit codes of :func:`run_cli`: 0 pass, 1 a checked field
regressed or went missing, or the run broke its own invariants, 2 no
readable baseline for ``--check`` or a baseline that is not like for
like.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "EXACT",
    "RATE",
    "TIME",
    "SUITE_NAMES",
    "BenchSuite",
    "suites",
    "find_baseline",
    "load_results",
    "baseline_mismatch",
    "check_regression",
    "render_comparison",
    "write_results",
    "run_cli",
]

EXACT, RATE, TIME = "exact", "rate", "time"

SUITE_NAMES = ("hotpath", "scaleout", "fabrics", "service")

Document = Dict[str, Any]


@dataclass(frozen=True)
class BenchSuite:
    """What one committed suite supplies; every step is shared."""

    name: str
    #: result file name, at the repository root
    bench_file: str
    #: ``run(quick=..., **options)`` returns the result document
    run: Callable[..., Document]
    #: document field holding the rows
    rows: str
    #: row fields that identify a row across runs
    key: Tuple[str, ...]
    #: row label (``@``-joined key) or ``"*"`` -> {field: comparison kind}
    checks: Mapping[str, Mapping[str, str]]
    #: table columns after the key
    columns: Tuple[str, ...]
    tolerance: float = 0.0
    #: ``repro bench`` arguments ``run`` takes besides ``quick``
    options: Tuple[str, ...] = ()
    #: baseline fields kept under ``previous`` when a run is written
    previous: Tuple[str, ...] = ()
    #: one-line finding printed under the table
    headline: Optional[Callable[[Document], Optional[str]]] = None
    #: failures of a run against its own invariants (checked by --check)
    invariants: Optional[Callable[[Document], List[str]]] = None


def suites() -> Dict[str, BenchSuite]:
    """Every committed suite by name (imports the measurement modules)."""
    from ..service.bench import SUITE as service
    from .hotpath import SUITE as hotpath
    from .scaleout import FABRICS_SUITE, SCALEOUT_SUITE

    return {
        suite.name: suite
        for suite in (hotpath, SCALEOUT_SUITE, FABRICS_SUITE, service)
    }


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------
def find_baseline(suite: BenchSuite, path: Optional[str] = None) -> Optional[str]:
    """``path`` when given, else the committed file in the working
    directory or at the repository root (None when neither exists)."""
    if path is not None:
        return path
    for root in (Path.cwd(), Path(__file__).resolve().parents[3]):
        candidate = root / suite.bench_file
        if candidate.is_file():
            return str(candidate)
    return None


def load_results(path: str) -> Optional[Document]:
    """Parse a result file (None when absent, unreadable or not a JSON object)."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def _rows(suite: BenchSuite, document: Document) -> Dict[tuple, Dict[str, Any]]:
    found = document.get(suite.rows)
    if isinstance(found, dict):
        found = [{suite.key[0]: name, "value": value} for name, value in found.items()]
    elif not isinstance(found, list):  # absent, or a mangled baseline
        found = []
    return {
        tuple(row.get(k) for k in suite.key): row
        for row in found
        if isinstance(row, dict)
    }


def _tags(document: Document) -> Dict[str, Any]:
    engine = document.get("engine") or {}
    return {
        "engine": engine.get("name"),
        "native": engine.get("native"),
        "impl": document.get("impl"),
    }


def baseline_mismatch(
    suite: BenchSuite, current: Document, baseline: Document
) -> List[str]:
    """Why ``current`` must not be compared against ``baseline``.

    The documents must be of this suite and share rows, and the engine
    name, native flag and Python implementation must agree wherever both
    carry them: a pure-Python run against a native-build baseline (or
    CPython vs PyPy) would report a "regression" that is really a
    platform difference.  Suites without tags, and legacy baselines
    recorded before tagging, pass the tag comparison.
    """
    problems: List[str] = []
    if baseline.get("suite") not in (None, suite.name):
        problems.append(
            f"baseline is a {baseline['suite']!r} document, not {suite.name!r}"
        )
    cur_tags = _tags(current)
    for tag, recorded in _tags(baseline).items():
        ran = cur_tags[tag]
        if recorded is not None and ran is not None and recorded != ran:
            problems.append(
                f"baseline was recorded with {tag}={recorded!r}, this run "
                f"has {tag}={ran!r}"
            )
    if not set(_rows(suite, current)) & set(_rows(suite, baseline)):
        problems.append("baseline shares no rows with this run")
    return problems


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
def _label(key: tuple) -> str:
    return "@".join(str(part) for part in key)


def _speedup(kind: str, got: Any, want: Any) -> Optional[float]:
    """Current over baseline, >1 is better (None for EXACT or a zero)."""
    if kind == RATE and want:
        return got / want
    if kind == TIME and got:
        return want / got
    return None


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(got: Any, want: Any, tolerance: float) -> bool:
    if got == want:
        return True
    return (
        _numeric(got)
        and _numeric(want)
        and abs(got - want) <= tolerance * abs(want)
    )


def _compare(
    suite: BenchSuite, current: Document, baseline: Document, tolerance: float
) -> Dict[tuple, List[Tuple[str, Optional[float], Optional[str]]]]:
    """Per shared row: (field, speedup, failure) for each checked field."""
    base = _rows(suite, baseline)
    out: Dict[tuple, List[Tuple[str, Optional[float], Optional[str]]]] = {}
    for key, row in _rows(suite, current).items():
        if key not in base:
            continue
        label = _label(key)
        fields = suite.checks.get(label, suite.checks.get("*", {}))
        results = out[key] = []
        for field, kind in fields.items():
            # A dropped field must not pass vacuously: name the side
            # that lost it.
            missing = [
                side
                for side, doc_row in (("baseline", base[key]), ("this run", row))
                if field not in doc_row
            ]
            if missing:
                failure = f"{label}: {field} missing from {' and '.join(missing)}"
                results.append((field, None, failure))
                continue
            got, want = row[field], base[key][field]
            failure = None
            speedup = _speedup(kind, got, want)
            if kind == EXACT and not _same(got, want, tolerance):
                failure = (
                    f"{label}: {field} {_fmt(got)} != baseline {_fmt(want)}"
                )
            elif speedup is not None and speedup < 1.0 - tolerance:
                failure = (
                    f"{label}: {field} {speedup:.2f}x of baseline "
                    f"(floor {1.0 - tolerance:.2f}x)"
                )
            results.append((field, speedup, failure))
    return out


def check_regression(
    suite: BenchSuite,
    current: Document,
    baseline: Document,
    tolerance: Optional[float] = None,
) -> List[str]:
    """Checked fields of ``current`` that regressed against ``baseline``,
    then the run's own invariant failures.  Rows only one side has
    (a quick run against a full baseline) are skipped."""
    if tolerance is None:
        tolerance = suite.tolerance
    failures = [
        failure
        for results in _compare(suite, current, baseline, tolerance).values()
        for _field, _speedup, failure in results
        if failure
    ]
    if suite.invariants is not None:
        failures.extend(suite.invariants(current))
    return failures


# ---------------------------------------------------------------------------
# rendering and writing
# ---------------------------------------------------------------------------
def _fmt(value: Any) -> str:
    if not _numeric(value):
        return str(value)
    if isinstance(value, int) or abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3f}"


def _versus(results: List[Tuple[str, Optional[float], Optional[str]]]) -> str:
    """One row's verdict: each speedup, then exact fields' match or drift."""
    words = [f"{speedup:.2f}x" for _, speedup, _ in results if speedup is not None]
    exact = [(field, failure) for field, speedup, failure in results if speedup is None]
    drift = [field for field, failure in exact if failure]
    if drift:
        words.append("DRIFT " + ",".join(drift))
    elif exact:
        words.append("match")
    return " ".join(words)


def render_comparison(
    suite: BenchSuite,
    current: Document,
    baseline: Optional[Document] = None,
    tolerance: Optional[float] = None,
) -> str:
    """The run as an aligned table, one row per result row; with a
    baseline, a last column gives each checked speedup or exact match,
    judged at ``tolerance`` (default the suite's)."""
    if tolerance is None:
        tolerance = suite.tolerance
    engine = current.get("engine") or {}
    tag = (
        f", engine {engine.get('name')}{' native' if engine.get('native') else ''}"
        if engine
        else ""
    )
    lines = [
        f"{suite.name} suite (quick={current.get('quick')}, "
        f"py {current.get('python')}{tag})"
    ]
    compared = (
        _compare(suite, current, baseline, tolerance) if baseline else {}
    )
    header = [*suite.key, *suite.columns] + (["vs baseline"] if baseline else [])
    body = []
    for key, row in _rows(suite, current).items():
        values = [*key, *(row.get(column, "-") for column in suite.columns)]
        if baseline:
            values.append(_versus(compared[key]) if key in compared else "new")
        body.append(values)
    # numeric columns read right-aligned, text columns left-aligned
    right = [any(_numeric(values[i]) for values in body) for i in range(len(header))]
    table = [header] + [[_fmt(value) for value in values] for values in body]
    widths = [max(len(cells[i]) for cells in table) for i in range(len(header))]
    for cells in table:
        padded = [
            cell.rjust(width) if align else cell.ljust(width)
            for cell, width, align in zip(cells, widths, right)
        ]
        lines.append(("  " + "  ".join(padded)).rstrip())
    headline = suite.headline(current) if suite.headline else None
    if headline:
        lines.append(f"  {headline}")
    return "\n".join(lines)


def write_results(
    suite: BenchSuite,
    document: Document,
    path: str,
    baseline: Optional[Document] = None,
) -> None:
    """Write ``document`` as sorted, indented JSON, keeping the
    ``suite.previous`` fields of ``baseline`` under ``previous``."""
    if baseline is not None and suite.previous:
        previous = {field: baseline.get(field) for field in suite.previous}
        document = dict(document, previous=previous)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------
def _record(suite: BenchSuite) -> str:
    """The command that records ``suite``'s baseline."""
    return f"repro bench {suite.name} --output {suite.bench_file}"


def run_cli(args) -> int:
    """``repro bench <suite>``: run, render, write and (``--check``) gate.

    A run writes its result document only to ``--output``, so no run
    rewrites a baseline unless told to: ``repro bench <suite> --output
    BENCH_<suite>.json`` records one.
    """
    suite = suites()[args.scenario]
    where = f"bench {suite.name}"
    path = find_baseline(suite, args.baseline)
    baseline = load_results(path) if path else None
    if args.check and baseline is None:
        # A gate without a baseline cannot pass vacuously: CI must
        # notice a deleted or corrupt BENCH file.
        print(
            f"{where} --check: no baseline found "
            f"({path or suite.bench_file} is missing or not a JSON "
            f"document) -- run `{_record(suite)}` to record one",
            file=sys.stderr,
        )
        return 2
    tolerance = suite.tolerance if args.tolerance is None else args.tolerance
    current = suite.run(
        quick=args.quick, **{opt: getattr(args, opt) for opt in suite.options}
    )
    print(render_comparison(suite, current, baseline, tolerance))
    if baseline is None:
        print(f"(no baseline found -- `{_record(suite)}` records one)")
    if args.output:
        write_results(suite, current, args.output, baseline)
        print(f"results written to {args.output}")
    if not args.check:
        return 0
    mismatches = baseline_mismatch(suite, current, baseline)
    if mismatches:
        # Not a regression: the numbers are simply not comparable.
        for mismatch in mismatches:
            print(f"{where} --check: {mismatch}", file=sys.stderr)
        print(f"{where} --check: re-record the baseline to compare "
              "like for like", file=sys.stderr)
        return 2
    failures = check_regression(suite, current, baseline, tolerance)
    if failures:
        for failure in failures:
            print(f"{where} --check: FAIL {failure}", file=sys.stderr)
        return 1
    print(f"no regression beyond {tolerance:.0%} tolerance vs the baseline")
    return 0
