"""Tests for the WCS/TCS/BCS microbenchmark machinery."""

import pytest

from repro.errors import ConfigError
from repro.workloads import (
    MicrobenchSpec,
    build_programs,
    make_platform,
    run_microbench,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = MicrobenchSpec()
        assert spec.scenario == "wcs"
        assert spec.lock_kind == "turn"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            MicrobenchSpec(scenario="mcs")

    def test_unknown_solution_rejected(self):
        with pytest.raises(ConfigError):
            MicrobenchSpec(solution="magic")

    def test_zero_lines_rejected(self):
        with pytest.raises(ConfigError):
            MicrobenchSpec(lines=0)

    def test_bcs_turn_lock_rejected(self):
        with pytest.raises(ConfigError):
            MicrobenchSpec(scenario="bcs", lock="turn")

    def test_lock_defaults_by_scenario(self):
        assert MicrobenchSpec(scenario="wcs").lock_kind == "turn"
        assert MicrobenchSpec(scenario="tcs").lock_kind == "swap"
        assert MicrobenchSpec(scenario="bcs").lock_kind == "swap"

    def test_with_copies(self):
        spec = MicrobenchSpec(lines=4)
        assert spec.with_(lines=8).lines == 8
        assert spec.lines == 4


class TestPlatformMapping:
    def test_disabled_uncaches_shared(self):
        platform = make_platform(MicrobenchSpec(solution="disabled"))
        assert not platform.map.region("shared").cacheable
        assert not platform.config.hardware_coherence

    def test_software_caches_without_snooping(self):
        platform = make_platform(MicrobenchSpec(solution="software"))
        assert platform.map.region("shared").cacheable
        assert platform.bus.snoopers == []

    def test_proposed_attaches_coherence(self):
        platform = make_platform(MicrobenchSpec(solution="proposed"))
        assert platform.config.hardware_coherence
        assert len(platform.bus.snoopers) == 2

    def test_hw_lock_adds_register(self):
        platform = make_platform(
            MicrobenchSpec(scenario="tcs", solution="proposed", lock="hw")
        )
        assert platform.lock_register is not None


class TestProgramGeneration:
    def test_bcs_first_core_just_halts(self):
        spec = MicrobenchSpec(scenario="bcs", solution="proposed", iterations=2)
        platform = make_platform(spec)
        programs = build_programs(spec, platform)
        ppc = programs["ppc755"]
        assert ppc[0].op == "HALT"

    def test_proposed_arm_program_has_isr(self):
        spec = MicrobenchSpec(scenario="wcs", solution="proposed", iterations=2)
        platform = make_platform(spec)
        programs = build_programs(spec, platform)
        assert programs["arm920t"].isr_entry is not None
        assert programs["ppc755"].isr_entry is None

    def test_software_program_contains_drains(self):
        spec = MicrobenchSpec(scenario="wcs", solution="software", iterations=1)
        platform = make_platform(spec)
        programs = build_programs(spec, platform)
        ops = [i.op for i in programs["ppc755"].instrs]
        assert "DCBF" in ops
        assert "SYNC" in ops

    def test_proposed_program_has_no_drains(self):
        spec = MicrobenchSpec(scenario="wcs", solution="proposed", iterations=1)
        platform = make_platform(spec)
        programs = build_programs(spec, platform)
        task_ops = [
            i.op
            for i in programs["ppc755"].instrs
        ]
        assert "DCBF" not in task_ops

    def test_tcs_schedule_is_seeded(self):
        from repro.workloads.microbench import _block_schedule

        spec = MicrobenchSpec(scenario="tcs", iterations=10, seed=7)
        a = _block_schedule(spec, 0, 32)
        b = _block_schedule(spec, 0, 32)
        c = _block_schedule(spec.with_(seed=8), 0, 32)
        assert a == b
        assert a != c

    def test_tcs_tasks_get_different_schedules(self):
        from repro.workloads.microbench import _block_schedule

        spec = MicrobenchSpec(scenario="tcs", iterations=10)
        assert _block_schedule(spec, 0, 32) != _block_schedule(spec, 1, 32)

    def test_tcs_footprint_guard(self):
        spec = MicrobenchSpec(scenario="tcs", lines=65536, tcs_blocks=10)
        platform = make_platform(spec)
        with pytest.raises(ConfigError):
            build_programs(spec, platform)


class TestRuns:
    @pytest.mark.parametrize("scenario", ["wcs", "tcs", "bcs"])
    @pytest.mark.parametrize("solution", ["disabled", "software", "proposed"])
    def test_all_combinations_run_coherently(self, scenario, solution):
        spec = MicrobenchSpec(
            scenario=scenario, solution=solution, lines=2, exec_time=1, iterations=2
        )
        result = run_microbench(spec, check=True)
        assert result.elapsed_ns > 0

    def test_default_platform_run_takes_time(self):
        spec = MicrobenchSpec("wcs", "proposed", lines=4, exec_time=1, iterations=4)
        assert run_microbench(spec).elapsed_ns > 0

    def test_final_memory_values_correct(self):
        """WCS with both tasks incrementing: totals must add up."""
        spec = MicrobenchSpec(
            scenario="wcs", solution="proposed", lines=2, exec_time=2, iterations=3
        )
        result = run_microbench(spec, keep_platform=True, check=True)
        platform = result.platform
        from repro.core import SHARED_BASE

        # Each word of each line is incremented once per pass:
        # 2 tasks x 3 iterations x 2 passes = 12... but the last holder
        # may still cache the line; read through a controller instead.
        controller = platform.controllers[0]

        def reader():
            value = yield from controller.read(SHARED_BASE)
            return value

        proc = platform.sim.process(reader())
        platform.sim.run(detect_deadlock=False)
        assert proc.value == 12

    def test_proposed_isr_only_in_wcs_tcs(self):
        bcs = run_microbench(
            MicrobenchSpec("bcs", "proposed", lines=2, iterations=2)
        )
        assert bcs.isr_entries == 0
        wcs = run_microbench(
            MicrobenchSpec("wcs", "proposed", lines=2, iterations=2)
        )
        assert wcs.isr_entries > 0

    def test_disabled_never_caches_shared(self):
        result = run_microbench(
            MicrobenchSpec("wcs", "disabled", lines=2, iterations=2),
            keep_platform=True,
        )
        for controller in result.platform.controllers:
            shared_lines = [
                addr
                for addr, _l in controller.array.valid_lines()
                if addr >= 0x2000_0000
            ]
            assert shared_lines == []

    def test_keep_platform_flag(self):
        spec = MicrobenchSpec(lines=1, iterations=1)
        assert run_microbench(spec).platform is None
        assert run_microbench(spec, keep_platform=True).platform is not None

    def test_custom_memory_timing(self):
        from repro.mem import MemoryTiming

        spec = MicrobenchSpec("bcs", "software", lines=4, iterations=2)
        fast = run_microbench(spec).elapsed_ns
        slow = run_microbench(
            spec, memory_timing=MemoryTiming.for_miss_penalty(96)
        ).elapsed_ns
        assert slow > fast

    def test_work_cycles_lengthen_run(self):
        spec = MicrobenchSpec("bcs", "proposed", lines=2, iterations=2)
        plain = run_microbench(spec).elapsed_ns
        busy = run_microbench(spec.with_(work_cycles=50)).elapsed_ns
        assert busy > plain

    def test_words_per_line_scales_accesses(self):
        spec = MicrobenchSpec("bcs", "proposed", lines=2, iterations=2)
        full = run_microbench(spec).elapsed_ns
        narrow = run_microbench(spec.with_(words_per_line=1)).elapsed_ns
        assert narrow < full
