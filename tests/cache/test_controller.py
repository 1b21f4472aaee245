"""Unit tests for the snooping cache controller."""

import pytest

from repro.bus import AsbBus, BusOp, SnoopAction, Snooper, Transaction
from repro.cache import (
    CacheController,
    CacheGeometry,
    State,
    make_protocol,
)
from repro.core.coherence import MISS
from repro.errors import ProtocolError
from repro.mem import (
    MainMemory,
    MemoryController,
    MemoryMap,
    Region,
    WritePolicy,
)
from repro.sim import Clock, Simulator

CACHED = 0x0000_0000
UNCACHED = 0x0010_0000
WT = 0x0020_0000


def make_setup(protocol="MESI", protocol_wt=None, ways=2, size=1024):
    sim = Simulator()
    memory = MainMemory()
    memory_map = MemoryMap(
        [
            Region("ram", CACHED, 0x10_0000),
            Region("io", UNCACHED, 0x1000, cacheable=False),
            Region("wt", WT, 0x1000, write_policy=WritePolicy.WRITE_THROUGH),
        ]
    )
    bus = AsbBus(sim, Clock.from_mhz(50), MemoryController(memory, memory_map))
    controller = CacheController(
        name="cpu0",
        sim=sim,
        bus=bus,
        memory_map=memory_map,
        geometry=CacheGeometry(size, 32, ways),
        protocol=make_protocol(protocol),
        protocol_wt=make_protocol(protocol_wt) if protocol_wt else None,
    )
    return sim, memory, bus, controller


def run(sim, generator):
    proc = sim.process(generator)
    sim.run()
    return proc.value


class TestReads:
    def test_miss_fills_exclusive_when_unshared(self):
        sim, memory, _bus, controller = make_setup()
        memory.load(0x100, [42])
        value = run(sim, controller.read(0x100))
        assert value == 42
        assert controller.line_state(0x100) is State.EXCLUSIVE

    def test_second_read_hits(self):
        sim, memory, bus, controller = make_setup()
        memory.load(0x100, [42])
        run(sim, controller.read(0x100))
        txns_before = bus.stats.get("bus.txns")
        value = run(sim, controller.read(0x104))
        assert value == 0
        assert bus.stats.get("bus.txns") == txns_before

    def test_one_fill_then_every_read_of_the_line_hits(self):
        sim, _memory, _bus, controller = make_setup(ways=4, size=4096)

        def accessor():
            yield from controller.read(0x100)
            for _ in range(500):
                yield from controller.read(0x104)

        run(sim, accessor())
        assert controller.stats.get("cpu0.hits") == 500

    def test_msi_fill_is_shared_state(self):
        sim, _memory, _bus, controller = make_setup(protocol="MSI")
        run(sim, controller.read(0x100))
        assert controller.line_state(0x100) is State.SHARED

    def test_uncached_read_bypasses_cache(self):
        sim, memory, _bus, controller = make_setup()
        memory.load(UNCACHED, [7])
        value = run(sim, controller.read(UNCACHED))
        assert value == 7
        assert controller.line_state(UNCACHED) is State.INVALID

    def test_cache_disabled_goes_uncached(self):
        sim, memory, bus, controller = make_setup()
        controller.enabled = False
        memory.load(0x100, [5])
        assert run(sim, controller.read(0x100)) == 5
        assert controller.array.occupancy() == 0
        assert bus.stats.get("cpu0.uncached_reads") == 1

    def test_read_hit_queues_behind_a_drain_holding_the_port(self):
        sim, _memory, _bus, controller = make_setup()
        run(sim, controller.write(0x100, 9))  # dirty line to drain
        run(sim, controller.read(0x140))  # the line the read will hit
        assert (sim.now, sim.events_fired) == (600, 12)
        log = []

        def drainer():
            yield from controller.drain_line(0x100, State.SHARED)
            log.append(("drained", sim.now))

        def reader():
            yield sim.timeout(1)  # the drain holds the port by now
            value = yield from controller.read(0x144)
            log.append(("read", sim.now, value))

        sim.process(drainer())
        sim.process(reader())
        sim.run()
        assert log == [("drained", 880), ("read", 880, 0)]
        assert (sim.now, sim.events_fired) == (880, 22)
        assert (controller.port.acquisitions, controller.port.contentions) == (4, 1)
        assert controller.stats.get("cpu0.hits") == 1


class TestWrites:
    def test_write_miss_fills_modified(self):
        sim, _memory, bus, controller = make_setup()
        run(sim, controller.write(0x100, 9))
        assert controller.line_state(0x100) is State.MODIFIED
        assert bus.stats.get("bus.op.read-line-excl") == 1

    def test_write_hit_on_exclusive_is_silent(self):
        sim, _memory, bus, controller = make_setup()
        run(sim, controller.read(0x100))
        txns = bus.stats.get("bus.txns")
        run(sim, controller.write(0x100, 9))
        assert controller.line_state(0x100) is State.MODIFIED
        assert bus.stats.get("bus.txns") == txns  # silent E -> M

    def test_write_back_visible_after_flush(self):
        sim, memory, _bus, controller = make_setup()
        run(sim, controller.write(0x100, 9))
        run(sim, controller.flush_line(0x100))
        assert memory.peek(0x100) == 9
        assert controller.line_state(0x100) is State.INVALID

    def test_write_through_region_stays_shared(self):
        sim, memory, _bus, controller = make_setup(protocol_wt="SI")
        run(sim, controller.read(WT))
        run(sim, controller.write(WT, 3))
        assert controller.line_state(WT) is State.SHARED
        assert memory.peek(WT) == 3  # wrote through immediately

    def test_write_through_miss_does_not_allocate(self):
        sim, memory, _bus, controller = make_setup(protocol_wt="SI")
        run(sim, controller.write(WT, 3))
        assert controller.line_state(WT) is State.INVALID
        assert memory.peek(WT) == 3

    def test_shared_write_pays_upgrade(self):
        sim, _memory, bus, controller = make_setup(protocol="MSI")
        run(sim, controller.read(0x100))  # MSI: fills S
        run(sim, controller.write(0x100, 1))
        assert controller.line_state(0x100) is State.MODIFIED
        assert bus.stats.get("bus.op.invalidate") == 1


class TestEviction:
    def test_clean_eviction_no_writeback(self):
        sim, _memory, bus, controller = make_setup(size=64, ways=1)  # 2 sets
        run(sim, controller.read(0x000))
        run(sim, controller.read(0x040))  # same set, evicts clean 0x000
        assert bus.stats.get("cpu0.writebacks") == 0
        assert controller.line_state(0x000) is State.INVALID

    def test_dirty_eviction_writes_back(self):
        sim, memory, bus, controller = make_setup(size=64, ways=1)
        run(sim, controller.write(0x000, 77))
        run(sim, controller.read(0x040))
        assert bus.stats.get("cpu0.writebacks") == 1
        assert memory.peek(0x000) == 77

    def test_eviction_notifies_listeners(self):
        sim, _memory, _bus, controller = make_setup(size=64, ways=1)
        removed = []
        controller.remove_listeners.append(removed.append)
        run(sim, controller.read(0x000))
        run(sim, controller.read(0x040))
        assert removed == [0x000]


class TestCacheOps:
    def test_flush_clean_line_no_bus(self):
        sim, _memory, bus, controller = make_setup()
        run(sim, controller.read(0x100))
        txns = bus.stats.get("bus.txns")
        run(sim, controller.flush_line(0x100))
        assert bus.stats.get("bus.txns") == txns
        assert controller.line_state(0x100) is State.INVALID

    def test_flush_missing_line_is_noop(self):
        sim, _memory, _bus, controller = make_setup()
        run(sim, controller.flush_line(0x500))

    def test_invalidate_discards_dirty_data(self):
        sim, memory, _bus, controller = make_setup()
        run(sim, controller.write(0x100, 9))
        controller.invalidate_line(0x100)
        assert controller.line_state(0x100) is State.INVALID
        assert memory.peek(0x100) == 0  # write lost on purpose

    def test_writeback_line_keeps_clean_copy(self):
        sim, memory, _bus, controller = make_setup()
        run(sim, controller.write(0x100, 9))
        run(sim, controller.writeback_line(0x100))
        assert memory.peek(0x100) == 9
        assert controller.line_state(0x100) is State.EXCLUSIVE

    def test_swap_requires_uncached(self):
        sim, _memory, _bus, controller = make_setup()
        with pytest.raises(ProtocolError):
            run(sim, controller.swap(0x100, 1))

    def test_swap_on_uncached(self):
        sim, memory, _bus, controller = make_setup()
        memory.load(UNCACHED, [4])
        old = run(sim, controller.swap(UNCACHED, 1))
        assert old == 4
        assert memory.peek(UNCACHED) == 1

    def test_cached_addresses(self):
        sim, _memory, _bus, controller = make_setup()
        run(sim, controller.read(0x100))
        run(sim, controller.read(0x200))
        assert sorted(controller.cached_addresses()) == [0x100, 0x200]


def snooped(op, addr, **kwargs):
    return Transaction(op, addr, "peer", **kwargs)


class TestSnoopDecision:
    def test_miss(self):
        _sim, _memory, _bus, controller = make_setup()
        outcome, data = controller.snoop_decision(snooped(BusOp.READ_LINE, 0x100))
        assert outcome is MISS
        assert data is None

    def test_clean_read_commits_shared(self):
        sim, _memory, _bus, controller = make_setup()
        run(sim, controller.read(0x100))  # E
        outcome, _data = controller.snoop_decision(snooped(BusOp.READ_LINE, 0x100))
        assert outcome.action is SnoopAction.SHARED
        assert controller.line_state(0x100) is State.SHARED

    def test_dirty_read_defers_commit(self):
        sim, _memory, _bus, controller = make_setup()
        run(sim, controller.write(0x100, 1))  # M
        outcome, _data = controller.snoop_decision(snooped(BusOp.READ_LINE, 0x100))
        assert outcome.action is SnoopAction.RETRY
        assert outcome.next_state is State.SHARED
        assert controller.line_state(0x100) is State.MODIFIED  # unchanged

    def test_write_snoop_invalidates(self):
        sim, _memory, _bus, controller = make_setup()
        run(sim, controller.read(0x100))
        outcome, _data = controller.snoop_decision(
            snooped(BusOp.WRITE, 0x104, data=0)
        )
        assert outcome.action is SnoopAction.OK
        assert controller.line_state(0x100) is State.INVALID

    def test_moesi_supply(self):
        sim, memory, _bus, controller = make_setup(protocol="MOESI")
        memory.load(0x100, [11])
        run(sim, controller.read(0x100))
        run(sim, controller.write(0x100, 12))
        outcome, data = controller.snoop_decision(snooped(BusOp.READ_LINE, 0x100))
        assert outcome.action is SnoopAction.SUPPLY
        assert data[0] == 12
        assert controller.line_state(0x100) is State.OWNED


class TestDrainLine:
    def test_drain_pushes_and_changes_state(self):
        sim, memory, _bus, controller = make_setup()
        run(sim, controller.write(0x100, 5))
        run(sim, controller.drain_line(0x100, State.SHARED))
        assert memory.peek(0x100) == 5
        assert controller.line_state(0x100) is State.SHARED

    def test_drain_to_invalid_removes(self):
        sim, memory, _bus, controller = make_setup()
        run(sim, controller.write(0x100, 5))
        run(sim, controller.drain_line(0x100, State.INVALID))
        assert memory.peek(0x100) == 5
        assert controller.line_state(0x100) is State.INVALID

    def test_drain_clean_line_skips_bus(self):
        sim, _memory, bus, controller = make_setup()
        run(sim, controller.read(0x100))  # E (clean)
        txns = bus.stats.get("bus.txns")
        run(sim, controller.drain_line(0x100, State.SHARED))
        assert bus.stats.get("bus.txns") == txns
        assert controller.line_state(0x100) is State.SHARED

    def test_drain_missing_line_is_noop(self):
        sim, _memory, _bus, controller = make_setup()
        run(sim, controller.drain_line(0x700, State.INVALID))

    def test_drain_captures_latest_data(self):
        sim, memory, _bus, controller = make_setup()
        run(sim, controller.write(0x100, 5))
        run(sim, controller.write(0x104, 6))
        run(sim, controller.drain_line(0x100, State.INVALID))
        assert memory.peek(0x100) == 5
        assert memory.peek(0x104) == 6


class _ExplodingSnooper(Snooper):
    """Fails every address phase it sees, as a faulty peer would."""

    def snoop(self, txn):
        raise RuntimeError(f"snoop of {txn.op.value} exploded")


def _make_shared(sim, controller):
    run(sim, controller.read(0x100))  # E
    controller.snoop_decision(snooped(BusOp.READ_LINE, 0x100))  # S


def _make_dirty(sim, controller):
    run(sim, controller.write(0x100, 5))  # M


#: every entry point that holds the port across a bus tenure:
#: (setup, the access whose tenure fails)
PORT_HOLDERS = {
    "read-miss": (None, lambda c: c.read(0x100)),
    "write-miss": (None, lambda c: c.write(0x100, 1)),
    "write-hit-bus": (_make_shared, lambda c: c.write(0x100, 1)),
    "flush_line": (_make_dirty, lambda c: c.flush_line(0x100)),
    "writeback_line": (_make_dirty, lambda c: c.writeback_line(0x100)),
    "drain_line": (_make_dirty, lambda c: c.drain_line(0x100, State.SHARED)),
}


class TestPortLiveness:
    @pytest.mark.parametrize("entry", sorted(PORT_HOLDERS))
    def test_port_released_when_tenure_raises(self, entry):
        sim, memory, bus, controller = make_setup()
        assert controller.drain_needs_port
        setup, access = PORT_HOLDERS[entry]
        if setup is not None:
            setup(sim, controller)
        snooper = _ExplodingSnooper()
        bus.attach_snooper(snooper)
        proc = sim.process(access(controller))
        proc.add_callback(lambda _e: None)  # swallow the failure
        sim.run()
        assert not proc.ok and isinstance(proc.value, RuntimeError)
        # The dead access must not leave the tag/data port held...
        assert not controller.port.locked
        bus.detach_snooper(snooper)
        # ...so the next access (a miss, through the port) completes.
        memory.load(0x400, [7])
        assert run(sim, controller.read(0x400)) == 7
