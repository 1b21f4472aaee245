"""Unit tests for platform assembly and classification."""

import pytest

from repro.core import (
    LOCK_BASE,
    SHARED_BASE,
    Platform,
    PlatformConfig,
    classify_platform,
)
from repro.cpu import (
    preset_arm920t,
    preset_generic,
    preset_intel486,
    preset_powerpc755,
)
from repro.errors import ConfigError


def pf2_config(**overrides):
    return PlatformConfig(
        cores=(preset_powerpc755(), preset_arm920t()), **overrides
    )


class TestClassification:
    def test_pf3_all_coherent(self):
        assert classify_platform((preset_powerpc755(), preset_intel486())) == "PF3"

    def test_pf2_mixed(self):
        assert classify_platform((preset_powerpc755(), preset_arm920t())) == "PF2"

    def test_pf1_none_coherent(self):
        cores = (preset_arm920t("a0"), preset_arm920t("a1"))
        assert classify_platform(cores) == "PF1"

    def test_platform_records_class(self):
        assert Platform(pf2_config()).pf_class == "PF2"


class TestConfigValidation:
    def test_empty_cores_rejected(self):
        with pytest.raises(ConfigError):
            PlatformConfig(cores=())

    def test_mixed_line_sizes_rejected(self):
        cores = (
            preset_powerpc755(),
            preset_arm920t().with_(cache_line_bytes=16),
        )
        with pytest.raises(ConfigError) as exc_info:
            PlatformConfig(cores=cores)
        # The message names both offending sizes, not just cores[0]'s.
        assert "16" in str(exc_info.value)
        assert "32" in str(exc_info.value)

    def test_duplicate_core_names_rejected(self):
        cores = (preset_generic("p0", "MESI"), preset_generic("p0", "MSI"))
        with pytest.raises(ConfigError) as exc_info:
            PlatformConfig(cores=cores)
        assert "p0" in str(exc_info.value)

    def test_core_count_beyond_memory_layout_rejected(self):
        too_many = tuple(
            preset_generic(f"p{i}", "MESI") for i in range(513)
        )
        with pytest.raises(ConfigError):
            PlatformConfig(cores=too_many)

    def test_unknown_arbitration_rejected(self):
        with pytest.raises(ConfigError):
            pf2_config(arbitration="lottery")

    def test_with_copies(self):
        config = pf2_config()
        copy = config.with_(shared_cacheable=False)
        assert config.shared_cacheable and not copy.shared_cacheable


class TestWiring:
    def test_pf2_gets_wrapper_and_snoop_logic(self):
        platform = Platform(pf2_config())
        assert platform.wrappers[0] is not None
        assert platform.wrappers[1] is None
        assert platform.snoop_logics[0] is None
        assert platform.snoop_logics[1] is not None

    def test_pf3_gets_two_wrappers(self):
        platform = Platform(
            PlatformConfig(cores=(preset_powerpc755(), preset_intel486()))
        )
        assert all(w is not None for w in platform.wrappers)
        assert all(s is None for s in platform.snoop_logics)

    def test_software_config_attaches_nothing(self):
        platform = Platform(pf2_config(hardware_coherence=False))
        assert platform.reduction is None
        assert platform.bus.snoopers == []

    def test_reduction_matches_protocols(self):
        platform = Platform(pf2_config())
        assert platform.reduction.system_protocol == "MEI"

    def test_mailbox_region_bound_to_snoop_logic(self):
        platform = Platform(pf2_config())
        region = platform.map.find(platform.mailbox_base(1))
        assert region.device is platform.snoop_logics[1]

    def test_lock_register_device(self):
        platform = Platform(pf2_config(lock_register=True))
        assert platform.lock_register is not None
        region = platform.map.find(platform.lock_register.lock_addr())
        assert region.device is platform.lock_register

    def test_shared_region_cacheability_knob(self):
        cached = Platform(pf2_config(shared_cacheable=True))
        uncached = Platform(pf2_config(shared_cacheable=False))
        assert cached.map.find(SHARED_BASE).cacheable
        assert not uncached.map.find(SHARED_BASE).cacheable

    def test_lock_region_uncacheable_by_default(self):
        platform = Platform(pf2_config())
        assert not platform.map.find(LOCK_BASE).cacheable

    def test_core_lookup_by_name(self):
        platform = Platform(pf2_config())
        assert platform.core("arm920t").name == "arm920t"
        assert platform.controller("ppc755").name == "ppc755"
        assert platform.index_of("ppc755") == 0

    def test_private_regions_per_core(self):
        platform = Platform(pf2_config())
        assert platform.map.find(platform.private_base(0)).name == "private:ppc755"
        assert platform.map.find(platform.private_base(1)).name == "private:arm920t"

    def test_noncoherent_cache_is_not_a_bus_snooper(self):
        platform = Platform(pf2_config())
        names = {s.master_name for s in platform.bus.snoopers}
        # The ARM appears via its snoop logic, not via a wrapper.
        assert names == {"ppc755", "arm920t"}
        assert platform.controllers[1].coherent is False


class TestRun:
    def test_run_without_programs_rejected(self):
        with pytest.raises(ConfigError):
            Platform(pf2_config()).run()

    def test_run_returns_last_halt_time(self):
        from repro.cpu import Assembler

        platform = Platform(pf2_config())
        quick = Assembler()
        quick.halt()
        slow = Assembler()
        slow.delay(100).halt()
        platform.load_programs(
            {"ppc755": quick.assemble(), "arm920t": slow.assemble()}
        )
        elapsed = platform.run()
        assert elapsed == platform.core("arm920t").halt_time
        assert elapsed > platform.core("ppc755").halt_time

    def test_three_core_platform_runs(self):
        from repro.cpu import Assembler

        cores = (
            preset_generic("p0", "MEI", freq_mhz=100),
            preset_generic("p1", "MESI"),
            preset_generic("p2", "MOESI"),
        )
        platform = Platform(PlatformConfig(cores=cores))
        programs = {}
        for index, cfg in enumerate(cores):
            asm = Assembler()
            asm.li(1, SHARED_BASE).li(2, index).st(2, 1, 4 * index).halt()
            programs[cfg.name] = asm.assemble()
        platform.load_programs(programs)
        platform.run()
        for index in range(3):
            assert platform.memory.peek(SHARED_BASE + 4 * index) in (0, index)
