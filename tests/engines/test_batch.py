"""Batch-engine edges: rejections, the one-pass replay loop, values.

The batch engine refuses configurations and traces it cannot replay
faithfully (fault injection, non-coherent masters, unknown processors,
unmapped addresses, regions a cache line could straddle) instead of
producing silently wrong statistics.  Its replay loop decomposes each
access where it replays it and looks up the address's region only off
the hit path, so the edges of that split are pinned here.
"""

import pytest

from repro.core import LOCK_BASE, SHARED_BASE
from repro.core.platform import PRIVATE_BASE, PlatformConfig, build_memory_map
from repro.cpu import presets
from repro.cpu.presets import preset_arm920t, preset_generic, preset_intel486
from repro.engines import get_engine
from repro.engines.batch import _line_aligned_regions
from repro.errors import ConfigError, ProtocolError
from repro.mem.map import MemoryMap, Region
from repro.faults import FaultSpec
from repro.workloads.tracegen import TraceAccess

from .test_equivalence import assert_same_replay


def _two_mesi(**overrides):
    return PlatformConfig(
        cores=(preset_generic("p0", "MESI"), preset_generic("p1", "MESI")),
        hardware_coherence=True,
        **overrides,
    )


class TestRejections:
    def test_fault_injection_is_refused(self):
        config = _two_mesi(faults=(FaultSpec(site="drain.drop"),))
        with pytest.raises(ConfigError, match="fault injection"):
            get_engine("batch").run(config, [])

    def test_non_coherent_masters_are_refused(self):
        config = PlatformConfig(
            cores=(preset_generic("p0", "MESI"), preset_arm920t("p1")),
            hardware_coherence=True,
        )
        with pytest.raises(ConfigError, match="coherent masters only"):
            get_engine("batch").run(config, [])

    def test_out_of_range_processor_is_refused(self):
        access = TraceAccess(7, "read", SHARED_BASE, None)
        with pytest.raises(ConfigError, match="processor"):
            get_engine("batch").run(_two_mesi(), [access])

    def test_unmapped_address_is_refused(self):
        access = TraceAccess(0, "read", 0xDEAD_0000_0000, None)
        with pytest.raises(ConfigError, match="unmapped"):
            get_engine("batch").run(_two_mesi(), [access])


class TestValueSemantics:
    def test_reads_writes_and_swaps(self):
        word = SHARED_BASE + 0x40
        lock = LOCK_BASE  # uncached: atomic exchange is only legal here
        accesses = [
            TraceAccess(0, "read", word, None),       # reset value
            TraceAccess(0, "write", word, 111),
            TraceAccess(1, "read", word, None),       # sees p0's store
            TraceAccess(1, "swap", lock, 1),          # returns pre-swap
            TraceAccess(0, "swap", lock, 1),          # sees p1's claim
            TraceAccess(0, "read", word, None),       # cached value again
        ]
        result = get_engine("batch").run(_two_mesi(), accesses)
        assert result.values == [0, None, 111, 0, 1, 111]
        assert result.accesses == 6
        # Statistics-only engine: no kernel, no simulated time.
        assert result.events == 0
        assert result.elapsed_ns == 0

    def test_empty_trace_runs(self):
        result = get_engine("batch").run(_two_mesi(), [])
        assert result.accesses == 0
        assert result.values == []


class TestFusedLoop:
    @pytest.mark.parametrize("proc", [-1, 2])
    def test_processor_outside_the_config_is_refused(self, proc):
        # -1 would index the last master of a list; 2 is one past it.
        access = TraceAccess(proc, "read", SHARED_BASE, None)
        with pytest.raises(ConfigError, match="processor"):
            get_engine("batch").run(_two_mesi(), [access])

    def test_unmapped_address_after_valid_accesses_is_refused(self):
        accesses = [
            TraceAccess(0, "write", SHARED_BASE, 1),
            TraceAccess(1, "read", SHARED_BASE, None),
            TraceAccess(0, "read", SHARED_BASE, None),     # a hit
            TraceAccess(1, "read", 0x7000_0000, None),     # no region
        ]
        with pytest.raises(ConfigError, match="unmapped address 0x70000000"):
            get_engine("batch").run(_two_mesi(), accesses)

    def test_write_through_shared_region_matches_exact(self):
        # The i486's SI lines: a write-through line is filled, then hit
        # (the write hit goes out on the bus, the read hit stays local);
        # a write miss goes straight out without allocating.
        config = PlatformConfig(
            cores=(preset_intel486("p0"), preset_intel486("p1")),
            hardware_coherence=True,
            shared_write_through=True,
        )
        word = SHARED_BASE + 0x20
        accesses = [
            TraceAccess(0, "read", word, None),       # read miss, fill
            TraceAccess(0, "write", word, 7),         # write hit
            TraceAccess(0, "read", word, None),       # read hit
            TraceAccess(1, "write", word + 4, 9),     # write miss
            TraceAccess(1, "read", word + 4, None),
            TraceAccess(0, "read", word + 4, None),
        ]
        result = assert_same_replay(config, accesses)
        assert result.values == [0, None, 7, None, 9, 9]
        assert result.stats["p0.hits"] == 2
        assert result.stats["p0.write_throughs"] == 1
        assert result.stats["p1.write_misses"] == 1
        assert result.stats["p1.write_throughs"] == 1

    def test_disabled_cache_takes_the_uncached_path(self):
        config = PlatformConfig(
            cores=(
                preset_generic("p0", "MESI").with_(cache_enabled=False),
                preset_generic("p1", "MESI"),
            ),
            hardware_coherence=True,
        )
        word = SHARED_BASE + 0x40
        accesses = [
            TraceAccess(0, "write", word, 5),
            TraceAccess(0, "read", word, None),
            TraceAccess(1, "read", word, None),
            TraceAccess(0, "read", PRIVATE_BASE, None),
        ]
        result = assert_same_replay(config, accesses)
        assert result.values == [None, 5, 5, 0]
        assert result.stats["p0.uncached_writes"] == 1
        assert result.stats["p0.uncached_reads"] == 2
        assert "p0.hits" not in result.stats
        assert result.line_states["p0"] == {}

    def test_swap_on_a_cacheable_address_is_refused(self):
        accesses = [
            TraceAccess(0, "read", SHARED_BASE, None),   # resident line
            TraceAccess(0, "swap", SHARED_BASE, 1),
        ]
        with pytest.raises(ProtocolError, match="swap at 0x20000000"):
            get_engine("batch").run(_two_mesi(), accesses)


#: every preset in repro.cpu.presets, by its factory's name
PRESETS = {
    name: (preset_generic("p0", "MESI") if name == "preset_generic"
           else getattr(presets, name)("p0"))
    for name in presets.__all__ if name.startswith("preset_")
}


class TestRegionAlignment:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_standard_map_is_line_aligned_for_every_preset(self, preset):
        config = PlatformConfig(cores=(PRESETS[preset],))
        assert len(_line_aligned_regions(config)) == len(
            list(build_memory_map(config))
        )

    def test_largest_generic_line_is_aligned(self):
        # 16 KiB, 4 ways: a 4 KiB line is the largest the geometry holds.
        core = preset_generic("p0", "MESI").with_(cache_line_bytes=4096)
        config = PlatformConfig(cores=(core,), hardware_coherence=True)
        assert _line_aligned_regions(config)
        result = get_engine("batch").run(
            config, [TraceAccess(0, "read", SHARED_BASE + 0xFFC, None)]
        )
        assert result.values == [0]
        with pytest.raises(ConfigError):
            core.with_(cache_line_bytes=8192).geometry()

    def test_misaligned_region_is_refused(self, monkeypatch):
        import repro.engines.batch as batch_mod

        def odd_map(_config):
            memory_map = MemoryMap()
            memory_map.add(Region(name="odd", base=0x1000, size=0x30))
            return memory_map

        monkeypatch.setattr(batch_mod, "build_memory_map", odd_map)
        with pytest.raises(ConfigError, match="'odd'.*32-byte cache line"):
            get_engine("batch").run(_two_mesi(), [])
