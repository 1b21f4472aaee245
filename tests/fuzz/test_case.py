"""Tests for FuzzCase, its oracle, and run_case classification."""

import pytest

from repro.errors import ConfigError
from repro.fuzz.case import (
    FUZZ_PROTOCOLS,
    MODEL_PROTOCOLS,
    OUTCOMES,
    FuzzCase,
    allowed_outcomes,
    build_workload,
    explicit_workload,
    run_case,
)
from repro.fuzz.gen import CaseGenerator

# A configuration known to violate coherence deterministically: MEI has
# no shared state, so an unwrapped MESI+MEI pair races to stale reads.
VIOLATING = FuzzCase(
    seed=0,
    protocols=("MESI", "MEI"),
    wrapped=False,
    workload={
        "kind": "racy", "n": 20, "seed": 1,
        "footprint_words": 4, "write_ratio": 0.5,
    },
)


class TestFuzzCase:
    def test_round_trip(self):
        case = VIOLATING
        again = FuzzCase.from_dict(case.to_dict())
        assert again == case
        assert again.to_dict() == case.to_dict()

    def test_with_returns_modified_copy(self):
        case = FuzzCase(seed=3)
        other = case.with_(wrapped=False)
        assert case.wrapped and not other.wrapped
        assert other.seed == 3

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            FuzzCase(seed=0, scenario="chaos")

    def test_unknown_solution_rejected(self):
        with pytest.raises(ConfigError):
            FuzzCase(seed=0, scenario="deadlock", solution="hope")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            FuzzCase(seed=0, protocols=("MESI", "SI"))

    def test_describe_mentions_wrapping_and_protocols(self):
        assert "UNWRAPPED" in VIOLATING.describe()
        assert "MESI+MEI" in VIOLATING.describe()
        case = FuzzCase(seed=1, scenario="deadlock", solution="bakery")
        assert "bakery" in case.describe()

    def test_model_protocols_subset_of_fuzz(self):
        assert set(MODEL_PROTOCOLS) <= set(FUZZ_PROTOCOLS)
        assert "SI" not in FUZZ_PROTOCOLS


class TestOracle:
    def test_deadlock_none_must_wedge(self):
        case = FuzzCase(seed=0, scenario="deadlock", solution="none")
        assert allowed_outcomes(case) == ("deadlock",)

    def test_deadlock_solutions_must_complete(self):
        for solution in ("uncached-locks", "lock-register", "bakery"):
            case = FuzzCase(seed=0, scenario="deadlock", solution=solution)
            assert allowed_outcomes(case) == ("clean",)

    def test_unwrapped_unsafe_pair_may_violate(self):
        assert "violation" in allowed_outcomes(VIOLATING)

    def test_wrapped_pair_may_never_violate(self):
        case = VIOLATING.with_(wrapped=True)
        assert "violation" not in allowed_outcomes(case)

    def test_parallel_workload_may_deadlock_even_wrapped(self):
        # The paper's single tag/data port makes cross-drain deadlock a
        # documented hazard for concurrent multi-master traffic.
        case = FuzzCase(seed=0, workload={"kind": "racy", "n": 10, "seed": 1})
        assert "deadlock" in allowed_outcomes(case)

    def test_serial_workload_may_not_deadlock(self):
        case = FuzzCase(
            seed=0, workload={"kind": "producer-consumer", "n_items": 4}
        )
        assert allowed_outcomes(case) == ("clean",)

    def test_fault_widens_the_allowed_set(self):
        case = FuzzCase(
            seed=0,
            workload={"kind": "producer-consumer", "n_items": 4},
            fault={"site": "drain.delay", "delay_ns": 2_000, "count": None},
        )
        allowed = allowed_outcomes(case)
        for outcome in ("clean", "violation", "deadlock", "hang"):
            assert outcome in allowed

    def test_allowed_outcomes_are_valid_outcomes(self):
        for case in (
            VIOLATING,
            FuzzCase(seed=0),
            FuzzCase(seed=0, scenario="deadlock", solution="none"),
        ):
            assert set(allowed_outcomes(case)) <= set(OUTCOMES)


class TestBuildWorkload:
    def test_parallel_kinds_give_per_proc_traces(self):
        mode, traces = build_workload({"kind": "racy", "n": 5, "seed": 2})
        assert mode == "parallel"
        assert sorted(traces) == [0, 1]
        assert all(len(t) == 5 for t in traces.values())

    def test_serial_kind_gives_flat_list(self):
        mode, accesses = build_workload(
            {"kind": "producer-consumer", "n_items": 3}
        )
        assert mode == "serial"
        assert len(accesses) > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_workload({"kind": "quantum"})

    def test_explicit_freeze_replays_identically(self):
        workload = {"kind": "racy", "n": 8, "seed": 5}
        frozen = explicit_workload(workload)
        assert frozen["kind"] == "explicit"
        _, original = build_workload(workload)
        _, replay = build_workload(frozen)
        assert replay == original

    def test_explicit_passthrough(self):
        frozen = {"kind": "explicit", "traces": {"0": [["read", 64, 0]]}}
        assert explicit_workload(frozen) is frozen


class TestRunCase:
    def test_clean_case(self):
        case = FuzzCase(
            seed=0, workload={"kind": "producer-consumer", "n_items": 4}
        )
        result = run_case(case)
        assert result.outcome == "clean"
        assert result.expected
        assert result.elapsed_ns > 0

    def test_unwrapped_violation_is_expected(self):
        result = run_case(VIOLATING)
        assert result.outcome == "violation"
        assert result.violations > 0
        assert result.expected

    def test_deadlock_none_classifies_deadlock(self):
        case = FuzzCase(seed=0, scenario="deadlock", solution="none")
        result = run_case(case)
        assert result.outcome == "deadlock"
        assert result.expected

    def test_deadlock_bakery_classifies_clean(self):
        case = FuzzCase(seed=0, scenario="deadlock", solution="bakery")
        result = run_case(case)
        assert result.outcome == "clean"
        assert result.expected

    def test_bad_workload_classifies_error_not_raise(self):
        case = FuzzCase(seed=0, workload={"kind": "quantum"})
        result = run_case(case)
        assert result.outcome == "error"
        assert not result.expected

    def test_driver_failure_classifies_the_case(self):
        # Seed-0 campaign case 13: a retry.storm fault drives p0's
        # read-line-excl past the ARTRY ceiling, so the driver raises
        # LivelockError under the all_of barrier.  The barrier's error
        # must classify the case, not the coherence checker alone.
        case = CaseGenerator(seed=0).case(13)
        assert case.fault["site"] == "retry.storm"
        result = run_case(case)
        assert result.outcome == "livelock"
        assert result.expected

    def test_result_round_trips_to_dict(self):
        result = run_case(VIOLATING)
        data = result.to_dict()
        assert data["outcome"] == "violation"
        assert data["expected"] is True
        assert data["allowed"] == list(result.allowed)

    def test_replay_is_byte_identical(self):
        first = run_case(VIOLATING)
        second = run_case(FuzzCase.from_dict(VIOLATING.to_dict()))
        assert first.to_dict() == second.to_dict()


# Seed-0 campaign case 5139, shrunk to six accesses: P0's dirty victim
# write-back loses the line to P1's RWITM while it waits for the bus,
# is ARTRY'd while P1 drains its store, and then overwrites that store
# in memory (ROADMAP item 1 has the full cause).
STALE_WRITE_BACK = FuzzCase(
    seed=5139,
    protocols=("MOESI", "MOESI"),
    cache_sizes=(256, 256),
    cache_ways=(1, 1),
    workload={
        "kind": "explicit",
        "traces": {
            "0": [
                ["write", 0x20000034, 1],
                ["read", 0x20000048, 0],
                ["read", 0x20000234, 0],
                ["read", 0x2000003C, 0],
            ],
            "1": [
                ["read", 0x20000008, 0],
                ["write", 0x2000003C, 5],
            ],
        },
    },
)


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 1: CacheController._evict issues the dirty "
            "victim's WRITE_LINE without a grant-time validate, so a "
            "stale write-back overwrites the new owner's drained store"
        ),
    )
    def test_case_5139_stale_write_back_is_clean(self):
        assert run_case(STALE_WRITE_BACK).outcome == "clean"
