"""The bus presence map and the presence-filtered snoop window."""

import pytest

from repro.bus import AsbBus, BusOp, SnoopReply, Snooper, Transaction
from repro.cache import CacheController, CacheGeometry, make_protocol
from repro.core import Wrapper, WrapperPolicy
from repro.core.platform import FABRIC_NAMES, Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.faults import FaultSpec
from repro.mem import MainMemory, MemoryController, MemoryMap, Region
from repro.sim import Clock, Simulator
from repro.workloads.tracegen import (
    false_sharing_traces,
    racy_traces,
    replay_parallel,
)


def _platform(fabric, n=4, **overrides):
    cycle = ("MESI", "MOESI", "MSI", "MEI")
    cores = tuple(
        preset_generic(f"p{i}", cycle[i % len(cycle)]) for i in range(n)
    )
    config = dict(
        cores=cores,
        hardware_coherence=True,
        drain_policy="window",
        fabric=fabric,
    )
    config.update(overrides)
    return Platform(PlatformConfig(**config))


def _footprint(traces, line_bytes=32):
    """Every line base the traces touch."""
    return {
        access.addr & ~(line_bytes - 1)
        for trace in traces.values()
        for access in trace
    }


def _valid_lines(platform):
    """master name -> set of valid line base addresses, from the caches."""
    return {
        cfg.name: set(controller.cached_addresses())
        for cfg, controller in zip(platform.config.cores, platform.controllers)
    }


@pytest.mark.parametrize("fabric", FABRIC_NAMES)
class TestPresence:
    def test_presence_mirrors_cache_occupancy_exactly(self, fabric):
        platform = _platform(fabric)
        traces = false_sharing_traces(40, procs=4, lines=2, seed=11)
        replay_parallel(platform, traces)
        expected = {}
        for master, bases in _valid_lines(platform).items():
            for base in bases:
                expected.setdefault(base, set()).add(master)
        bus = platform.bus
        assert expected
        for base in _footprint(traces) | set(expected):
            assert bus.holders(base) == expected.get(base, set()), hex(base)

    def test_empty_sharer_sets_are_deleted(self, fabric):
        platform = _platform(fabric)
        traces = racy_traces(60, procs=4, footprint_words=8, seed=3)
        replay_parallel(platform, traces)
        bus = platform.bus
        held = [base for base in _footprint(traces) if bus.holders(base)]
        # Every tracked line has a holder: removals drop the entry.
        assert len(bus._presence) == len(held)

    def test_filtering_skips_most_snoops(self, fabric, monkeypatch):
        calls = {"filtered": 0, "broadcast": 0}
        original = CacheController.snoop_decision

        def counting(self, txn):
            calls[mode] += 1
            return original(self, txn)

        monkeypatch.setattr(CacheController, "snoop_decision", counting)
        traces = false_sharing_traces(40, procs=4, lines=2, seed=11)
        results = {}
        for mode in ("filtered", "broadcast"):
            if mode == "broadcast":
                monkeypatch.setattr(Wrapper, "presence_filtered", False)
            platform = _platform(fabric)
            elapsed = replay_parallel(platform, traces).elapsed_ns
            results[mode] = (elapsed, sorted(_valid_lines(platform).items()))
        # The same run, with fewer snoop decisions.
        assert results["filtered"] == results["broadcast"]
        assert calls["filtered"] < calls["broadcast"]


def _bare_bus():
    sim = Simulator()
    memory_map = MemoryMap([Region("ram", 0, 1 << 20)])
    bus = AsbBus(sim, Clock.from_mhz(50), MemoryController(MainMemory(), memory_map))
    return sim, memory_map, bus


def _controller(sim, memory_map, bus, name):
    return CacheController(
        name=name,
        sim=sim,
        bus=bus,
        memory_map=memory_map,
        geometry=CacheGeometry(1024, 32, 2),
        protocol=make_protocol("MESI"),
    )


def _run(sim, generator):
    proc = sim.process(generator)
    sim.run()
    return proc.value


class TestUnregisteredMasters:
    def test_unregistered_wrapper_is_still_snooped(self):
        sim, memory_map, bus = _bare_bus()
        # One registered master, so the bus has a line size and a
        # presence map; the wrapper's own master is never registered.
        bus.register_master("other", _controller(sim, memory_map, bus, "other"))
        controller = _controller(sim, memory_map, bus, "c0")
        Wrapper(sim, controller, WrapperPolicy(), bus)
        _run(sim, controller.read(0x100))
        assert controller.line_state(0x100).is_valid
        assert bus.holders(0x100) == frozenset()
        _run(sim, bus.transact(Transaction(BusOp.READ_LINE_EXCL, 0x100, "m")))
        assert not controller.line_state(0x100).is_valid

    def test_unfiltered_snooper_sees_every_foreign_phase(self):
        sim, memory_map, bus = _bare_bus()
        bus.register_master("p0", _controller(sim, memory_map, bus, "p0"))

        class Probe(Snooper):
            def __init__(self):
                self.master_name = "p0"
                self.seen = []

            def snoop(self, txn):
                self.seen.append(txn.addr)
                return SnoopReply.OK

        probe = Probe()
        bus.attach_snooper(probe)
        _run(sim, bus.transact(Transaction(BusOp.READ_LINE, 0x200, "m")))
        # p0 is registered and holds nothing, but the probe is not
        # presence-filtered.
        assert probe.seen == [0x200]


@pytest.mark.parametrize("fabric", FABRIC_NAMES)
def test_silent_snoop_proxy_sees_every_broadcast_occasion(fabric, monkeypatch):
    """A fault proxy counts every foreign address phase, as under broadcast.

    With the skip count landing mid-run, filtering the proxy would move
    the firing occasion and so change the run.
    """
    spec = FaultSpec("snoop.silent", master="p1", after_n=25, count=2)
    traces = false_sharing_traces(40, procs=4, lines=2, seed=11)
    outcomes = []
    for broadcast in (False, True):
        if broadcast:
            monkeypatch.setattr(Wrapper, "presence_filtered", False)
        platform = _platform(fabric, faults=(spec,))
        foreign = []
        bus = platform.bus
        original = bus._snoop_window

        def recording(txn, original=original, foreign=foreign):
            if txn.master != "p1":
                foreign.append(txn.addr)
            return original(txn)

        bus._snoop_window = recording
        replay_parallel(platform, traces)
        trigger = platform.fault_engine.injectors[0].trigger
        assert trigger.occasions == len(foreign)
        outcomes.append((trigger.occasions, trigger.fires, platform.sim.now))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == 2
