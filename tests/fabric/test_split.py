"""Split-transaction bus: pipelining, the in-flight window, ordering."""

from repro.bus import BusOp, FixedPriorityArbiter, Transaction
from repro.core.platform import Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.fabric import SplitBus
from repro.mem import MainMemory, MemoryController, MemoryMap, Region
from repro.sim import Clock, Simulator
from repro.verify.checker import CoherenceChecker
from repro.workloads.tracegen import false_sharing_traces, replay_parallel


def make_split(max_inflight=SplitBus.DEFAULT_MAX_INFLIGHT):
    sim = Simulator()
    memory = MainMemory()
    memory_map = MemoryMap([Region("ram", 0, 1 << 20)])
    bus = SplitBus(
        sim,
        Clock.from_mhz(50),
        MemoryController(memory, memory_map),
        arbiter=FixedPriorityArbiter(sim),
        max_inflight=max_inflight,
    )
    return sim, bus


class TestPipelining:
    def test_transact_returns_at_address_phase_end(self):
        # One uncontended line read: arb(1) + addr(1) on the address
        # bus; the 8-cycle data tenure retires in background.
        sim, bus = make_split()
        proc = sim.process(bus.transact(Transaction(BusOp.READ_LINE, 0x0, "m")))
        sim.run(until=2 * 20 + 1, detect_deadlock=False)
        assert proc.triggered  # master resumed before the data phase
        assert bus._outstanding == 1
        sim.run(detect_deadlock=False)
        assert bus._outstanding == 0

    def test_back_to_back_tenures_overlap(self):
        # N line reads on the atomic bus cost N full tenures; on the
        # split bus the address phases pipeline against data tenures,
        # so total elapsed time shrinks while total occupancy (address
        # spans + data spans) exceeds the elapsed window.
        sim, bus = make_split()

        def master(name, addr):
            yield from bus.transact(Transaction(BusOp.READ_LINE, addr, name))

        for i in range(4):
            sim.process(master(f"m{i}", 0x100 * i))
        sim.run(detect_deadlock=False)
        assert bus.completions == 4
        assert bus.stats.get("fabric.split.data_tenures") == 4
        assert bus.stats.get("bus.busy_ticks") > sim.now

    def test_data_tenures_retire_in_address_order(self):
        sim, bus = make_split()
        order = []

        def master(name, addr):
            yield from bus.transact(Transaction(BusOp.READ_LINE, addr, name))

        # Track retirement order through the chained completion events.
        original = bus._data_tenure

        def tracking(txn, cycles, predecessor, done):
            yield from original(txn, cycles, predecessor, done)
            order.append(txn.master)

        bus._data_tenure = tracking
        for i in range(4):
            sim.process(master(f"m{i}", 0x100 * i))
        sim.run(detect_deadlock=False)
        assert order == ["m0", "m1", "m2", "m3"]


class TestInflightWindow:
    def test_window_bound_is_respected_and_stalls_are_counted(self):
        sim, bus = make_split(max_inflight=1)
        peak = []

        def master(name, addr):
            yield from bus.transact(Transaction(BusOp.READ_LINE, addr, name))
            peak.append(bus._outstanding)

        for i in range(4):
            sim.process(master(f"m{i}", 0x100 * i))
        sim.run(detect_deadlock=False)
        assert bus.completions == 4
        assert max(peak) <= 1
        assert bus.stats.get("fabric.split.window_stalls") >= 1

    def test_wide_window_never_stalls_this_workload(self):
        sim, bus = make_split(max_inflight=16)

        def master(name, addr):
            yield from bus.transact(Transaction(BusOp.READ_LINE, addr, name))

        for i in range(4):
            sim.process(master(f"m{i}", 0x100 * i))
        sim.run(detect_deadlock=False)
        assert bus.stats.get("fabric.split.window_stalls") == 0


class TestCoherenceOnSplit:
    def test_contended_false_sharing_is_coherent(self):
        cores = tuple(
            preset_generic(f"p{i}", proto)
            for i, proto in enumerate(("MESI", "MOESI", "MSI", "MEI"))
        )
        platform = Platform(
            PlatformConfig(
                cores=cores,
                hardware_coherence=True,
                drain_policy="window",
                fabric="split",
            )
        )
        checker = CoherenceChecker(platform)
        traces = false_sharing_traces(60, procs=4, lines=2, seed=11)
        replay_parallel(platform, traces)
        checker.check_all_lines()
        assert checker.clean, checker.violations[:3]
