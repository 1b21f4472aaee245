"""Every fault class in the matrix lands in its expected detector."""

import json

import pytest

from repro.core.platform import FABRIC_NAMES
from repro.faults.matrix import (
    default_matrix,
    render_results,
    results_to_json,
    run_entry,
    run_matrix,
)

# Run the full matrix once per fabric; individual tests assert
# per-entry facts (on the default atomic fabric unless parametrized).
_BY_FABRIC = {
    fabric: {r.entry.name: r for r in run_matrix(fabric=fabric)}
    for fabric in FABRIC_NAMES
}
_RESULTS = _BY_FABRIC["atomic"]


def test_matrix_covers_every_site():
    sites = {e.spec.site for e in default_matrix()}
    from repro.faults import SITES

    assert sites == set(SITES)


def test_baseline_workload_is_clean():
    baseline = _RESULTS["baseline"]
    assert baseline.outcome == "not-triggered"
    assert baseline.fires == 0


@pytest.mark.parametrize("fabric,entry", [
    # The default fabric keeps the bare entry name as its test id.
    pytest.param(fabric, entry, id=entry.name if fabric == "atomic"
                 else f"{fabric}-{entry.name}")
    for fabric in FABRIC_NAMES
    for entry in default_matrix()
])
def test_entry_matches_expected_classification(fabric, entry):
    result = _BY_FABRIC[fabric][entry.name]
    assert result.ok, (
        f"{entry.name}: expected {entry.expected}, got {result.outcome} "
        f"({result.detail})"
    )
    assert result.outcome != "missed"  # zero silent hangs, ever


def test_liveness_faults_produce_diagnostic_dumps():
    for name in ("drain-drop", "fiq-lose", "cam-stale", "arbiter-starve"):
        result = _RESULTS[name]
        assert result.dump is not None
        assert "watchdog" in result.dump
        assert "in-flight bus tenures" in result.dump


def test_checker_fault_counts_violations():
    result = _RESULTS["snoop-silent"]
    assert result.violations > 0
    assert "violation" in result.detail


def test_benign_faults_actually_fired():
    for name in ("drain-delay", "fiq-delay", "mem-delay"):
        assert _RESULTS[name].fires > 0


def test_render_results_table():
    table = render_results(list(_RESULTS.values()))
    assert "expected" in table
    assert "drain-drop" in table
    assert "MISMATCH" not in table


def test_results_json_round_trips():
    payload = json.loads(results_to_json(list(_RESULTS.values())))
    assert len(payload) == len(_RESULTS)
    by_name = {item["name"]: item for item in payload}
    assert by_name["drain-drop"]["outcome"] == "watchdog"
    assert by_name["drain-drop"]["dump"]
    assert all(item["ok"] for item in payload)
