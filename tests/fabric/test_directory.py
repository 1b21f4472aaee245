"""Directory fabric: forwarding counters and home banks."""

import pytest

from repro.core.platform import Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.fabric import BankedArbiter, DirectoryFabric
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
            assert bus._bank_for(base + offset) is bus._bank_for(base)

    def test_different_homes_use_different_banks(self):
        platform = _platform(n=2)
        bus = platform.bus
        banks = {id(bus._bank_for(0x20000 + i * 32)) for i in range(8)}
        assert len(banks) == DirectoryFabric.DEFAULT_BANKS

    @pytest.mark.parametrize("discipline", ("fcfs", "priority", "round-robin"))
    def test_every_discipline_builds_the_banks(self, discipline):
        platform = _platform(arbitration=discipline)
        assert len(platform.bus.arbiter.banks) == DirectoryFabric.DEFAULT_BANKS
