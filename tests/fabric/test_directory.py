"""Directory fabric: forwarding counters and home banks."""

import pytest

from repro.bus import FixedPriorityArbiter
from repro.core.platform import Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.fabric import BankedArbiter, DirectoryFabric
from repro.mem import MainMemory, MemoryController, MemoryMap, Region
from repro.sim import Clock, Simulator
from repro.verify.checker import CoherenceChecker
from repro.workloads.tracegen import false_sharing_traces, replay_parallel


def _platform(n=4, **overrides):
    cycle = ("MESI", "MOESI", "MSI", "MEI")
    cores = tuple(
        preset_generic(f"p{i}", cycle[i % len(cycle)]) for i in range(n)
    )
    config = dict(
        cores=cores,
        hardware_coherence=True,
        drain_policy="window",
        fabric="directory",
    )
    config.update(overrides)
    return Platform(PlatformConfig(**config))


class TestPresence:
    # Presence mirroring and entry deletion are fabric-independent now
    # that the map lives in the bus: see tests/bus/test_presence.py.

    def test_forwards_are_bounded_by_lookups_times_sharers(self):
        platform = _platform()
        traces = false_sharing_traces(40, procs=4, lines=2, seed=11)
        replay_parallel(platform, traces)
        lookups = platform.stats.get("fabric.dir.lookups")
        forwards = platform.stats.get("fabric.dir.forwards")
        assert lookups > 0
        # At most n-1 point-to-point forwards per consult; a broadcast
        # fabric would always snoop n-1.
        assert 0 < forwards < lookups * 3

    def test_coherent_under_contention(self):
        platform = _platform()
        checker = CoherenceChecker(platform)
        traces = false_sharing_traces(60, procs=4, lines=2, seed=11)
        replay_parallel(platform, traces)
        checker.check_all_lines()
        assert checker.clean, checker.violations[:3]


class TestBanks:
    def test_watchdog_surface_aggregates_the_banks(self):
        platform = _platform()
        traces = false_sharing_traces(20, procs=4, lines=2, seed=11)
        replay_parallel(platform, traces)
        arbiter = platform.bus.arbiter
        assert isinstance(arbiter, BankedArbiter)
        assert arbiter.grants == sum(b.grants for b in arbiter.banks)
        merged = arbiter.grants_by_master
        assert sum(merged.values()) == arbiter.grants
        assert arbiter.pending() == 0
        snapshot = arbiter.snapshot()
        assert snapshot["grants"] == arbiter.grants
        assert len(snapshot["banks"]) == DirectoryFabric.DEFAULT_BANKS

    def test_same_line_hashes_to_the_same_bank(self):
        platform = _platform(n=2)
        bus = platform.bus
        base = 0x2000
        for offset in (0, 4, 8, 28):
            assert bus._arbiter_for(base + offset) is bus._arbiter_for(base)

    def test_different_homes_use_different_banks(self):
        platform = _platform(n=2)
        bus = platform.bus
        banks = {id(bus._arbiter_for(0x20000 + i * 32)) for i in range(8)}
        assert len(banks) == DirectoryFabric.DEFAULT_BANKS

    def test_an_unregistered_directory_hashes_lines_to_one_bank(self):
        sim = Simulator()
        bus = DirectoryFabric.build(
            sim,
            Clock.from_mhz(50),
            MemoryController(MainMemory(), MemoryMap([Region("ram", 0, 1 << 20)])),
            arbiter_factory=lambda: FixedPriorityArbiter(sim),
        )
        for offset in (0, 4, 8, 28):
            assert bus._arbiter_for(0x2000 + offset) is bus._arbiter_for(0x2000)
        assert bus._arbiter_for(0x2000) is not bus._arbiter_for(0x2020)

    def test_homes_hash_the_registered_line_size(self):
        # 16-byte lines: the next line has its own home, and the bank
        # choice is (addr // line_bytes) % banks as on every platform.
        cores = tuple(
            preset_generic(f"p{i}", "MESI").with_(cache_line_bytes=16)
            for i in range(2)
        )
        platform = Platform(
            PlatformConfig(cores=cores, hardware_coherence=True, fabric="directory")
        )
        bus = platform.bus
        banks = bus.arbiter.banks
        for addr in (0x2000, 0x2010, 0x2018, 0x20070):
            assert bus._arbiter_for(addr) is banks[(addr // 16) % len(banks)]

    @pytest.mark.parametrize("discipline", ("fcfs", "priority", "round-robin"))
    def test_every_discipline_builds_the_banks(self, discipline):
        platform = _platform(arbitration=discipline)
        assert len(platform.bus.arbiter.banks) == DirectoryFabric.DEFAULT_BANKS
