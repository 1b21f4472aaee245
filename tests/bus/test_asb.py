"""Unit tests for the ASB-like shared bus."""

import pytest

from repro.bus import (
    BusOp,
    FixedPriorityArbiter,
    Priority,
    SnoopAction,
    SnoopReply,
    Snooper,
    Transaction,
)
from repro.core.platform import FABRIC_NAMES
from repro.errors import LivelockError
from repro.fabric import FABRICS
from repro.mem import MainMemory, MemoryController, MemoryMap, Region
from repro.sim import Clock, Simulator

#: the fabrics beside the atomic bus; the liveness and cancellation
#: tests rerun on each of them (see the classes at the end)
OTHER_FABRICS = tuple(name for name in FABRIC_NAMES if name != "atomic")


def make_bus(snoopers=(), fabric="atomic", **bus_kwargs):
    sim = Simulator()
    memory = MainMemory()
    memory_map = MemoryMap([Region("ram", 0, 1 << 20)])
    bus = FABRICS[fabric].build(
        sim,
        Clock.from_mhz(50),
        MemoryController(memory, memory_map),
        arbiter_factory=lambda: FixedPriorityArbiter(sim),
        **bus_kwargs,
    )
    for snooper in snoopers:
        bus.attach_snooper(snooper)
    return sim, memory, bus


@pytest.fixture
def fabric():
    """The fabric under test: the atomic bus unless a class reruns the
    tests on :data:`OTHER_FABRICS`."""
    return "atomic"


def run_txn(sim, bus, txn, priority=Priority.NORMAL, commit=None):
    proc = sim.process(bus.transact(txn, priority=priority, commit=commit))
    sim.run()
    return proc.value


class StubSnooper(Snooper):
    """Scriptable snooper for bus-protocol tests."""

    def __init__(self, name, reply=SnoopReply.OK):
        self.master_name = name
        self.reply = reply
        self.seen = []

    def snoop(self, txn):
        self.seen.append((txn.op, txn.addr))
        return self.reply


class TestTiming:
    def test_single_read_is_8_bus_cycles(self):
        sim, _memory, bus = make_bus()
        result = run_txn(sim, bus, Transaction(BusOp.READ, 0x100, "m"))
        assert result.latency == 8 * 20  # arb + addr + 6 data, 20ns cycles

    def test_burst_read_is_15_bus_cycles(self):
        sim, _memory, bus = make_bus()
        result = run_txn(sim, bus, Transaction(BusOp.READ_LINE, 0x100, "m"))
        assert result.latency == (1 + 1 + 13) * 20

    def test_swap_is_atomic_single_tenure(self):
        sim, memory, bus = make_bus()
        memory.load(0x100, [9])
        result = run_txn(sim, bus, Transaction(BusOp.SWAP, 0x100, "m", data=1))
        assert result.data == 9
        assert memory.peek(0x100) == 1
        assert result.latency == (1 + 1 + 12) * 20

    def test_back_to_back_masters_serialize(self):
        sim, _memory, bus = make_bus()
        ends = []

        def master(name):
            result = yield from bus.transact(Transaction(BusOp.READ, 0x0, name))
            ends.append(result.end_time)

        sim.process(master("a"))
        sim.process(master("b"))
        sim.run()
        assert ends == [160, 320]


class TestDataMovement:
    def test_write_then_read(self):
        sim, memory, bus = make_bus()
        run_txn(sim, bus, Transaction(BusOp.WRITE, 0x200, "m", data=55))
        result = run_txn(sim, bus, Transaction(BusOp.READ, 0x200, "m"))
        assert result.data == 55

    def test_write_line_then_read_line(self):
        sim, _memory, bus = make_bus()
        payload = list(range(8))
        run_txn(sim, bus, Transaction(BusOp.WRITE_LINE, 0x200, "m", data=payload))
        result = run_txn(sim, bus, Transaction(BusOp.READ_LINE, 0x200, "m"))
        assert result.data == payload

    def test_commit_runs_before_release(self):
        sim, _memory, bus = make_bus()
        holder_at_commit = []

        def commit(_result):
            holder_at_commit.append(bus.arbiter.holder)

        run_txn(sim, bus, Transaction(BusOp.READ, 0x0, "m"), commit=commit)
        assert holder_at_commit == ["m"]


class TestSnooping:
    def test_own_transactions_not_snooped(self):
        snooper = StubSnooper("m")
        sim, _memory, bus = make_bus([snooper])
        run_txn(sim, bus, Transaction(BusOp.READ, 0x0, "m"))
        assert snooper.seen == []

    def test_foreign_transactions_snooped(self):
        snooper = StubSnooper("other")
        sim, _memory, bus = make_bus([snooper])
        run_txn(sim, bus, Transaction(BusOp.WRITE, 0x40, "m", data=1))
        assert snooper.seen == [(BusOp.WRITE, 0x40)]

    def test_shared_reply_sets_result_flag(self):
        snooper = StubSnooper("other", SnoopReply(SnoopAction.SHARED))
        sim, _memory, bus = make_bus([snooper])
        result = run_txn(sim, bus, Transaction(BusOp.READ_LINE, 0x0, "m"))
        assert result.shared

    def test_supply_overrides_memory(self):
        supplied = [100 + i for i in range(8)]
        snooper = StubSnooper(
            "owner", SnoopReply(SnoopAction.SUPPLY, supply_data=supplied)
        )
        sim, memory, bus = make_bus([snooper])
        memory.load(0x0, [0] * 8)
        result = run_txn(sim, bus, Transaction(BusOp.READ_LINE, 0x0, "m"))
        assert result.data == supplied
        assert result.supplied
        assert result.shared
        # dirty sharing: memory must NOT have been updated
        assert memory.peek(0x0) == 0

    def test_retry_backs_off_until_completion(self):
        sim, memory, bus = make_bus()

        class DrainingSnooper(Snooper):
            master_name = "owner"

            def __init__(self):
                self.completion = None

            def snoop(self, txn):
                if self.completion is None:
                    self.completion = sim.event()
                    return SnoopReply(SnoopAction.RETRY, completion=self.completion)
                return SnoopReply.OK

        snooper = DrainingSnooper()
        bus.attach_snooper(snooper)

        def drainer():
            # Write back "dirty" data at DRAIN priority, then release.
            yield sim.timeout(100)
            yield from bus.transact(
                Transaction(BusOp.WRITE_LINE, 0x0, "owner", data=[7] * 8),
                priority=Priority.DRAIN,
            )
            snooper.completion.succeed()

        sim.process(drainer())
        result = run_txn(sim, bus, Transaction(BusOp.READ_LINE, 0x0, "m"))
        assert result.retries == 1
        assert result.data == [7] * 8
        assert bus.stats.get("bus.retries") == 1

    def test_detach_snooper(self):
        snooper = StubSnooper("other")
        sim, _memory, bus = make_bus([snooper])
        bus.detach_snooper(snooper)
        run_txn(sim, bus, Transaction(BusOp.READ, 0x0, "m"))
        assert snooper.seen == []


class StormSnooper(Snooper):
    """ARTRY with an instantly-satisfied completion, forever."""

    master_name = "owner"

    def __init__(self, sim):
        self.sim = sim

    def snoop(self, txn):
        completion = self.sim.event()
        completion.succeed()
        return SnoopReply(SnoopAction.RETRY, completion=completion)


class TestLiveness:
    def test_retry_ceiling_raises_livelock_error(self, fabric):
        sim, _memory, bus = make_bus(fabric=fabric, max_retries=5)
        bus.attach_snooper(StormSnooper(sim))
        proc = sim.process(bus.transact(Transaction(BusOp.READ, 0x40, "m")))
        with pytest.raises(LivelockError) as exc_info:
            sim.run()
        error = exc_info.value
        assert error.master == "m"
        assert error.address == 0x40
        assert error.retries == 6
        assert "0x00000040" in str(error)

    def test_ceiling_none_disables_monitor(self, fabric):
        sim, _memory, bus = make_bus(fabric=fabric, max_retries=None)
        bus.attach_snooper(StormSnooper(sim))
        sim.process(bus.transact(Transaction(BusOp.READ, 0x40, "m")))
        # Bounded run: the spin continues without an error.
        with pytest.raises(Exception, match="max_events"):
            sim.run(max_events=5000)

    def test_default_ceiling_leaves_normal_retries_alone(self, fabric):
        sim, _memory, bus = make_bus(fabric=fabric)
        assert bus.max_retries == 1000

    def test_inflight_tenures_visible_while_backed_off(self, fabric):
        sim, _memory, bus = make_bus(fabric=fabric)

        class NeverDrains(Snooper):
            master_name = "owner"

            def snoop(self, txn):
                return SnoopReply(SnoopAction.RETRY, completion=sim.event())

        bus.attach_snooper(NeverDrains())
        sim.process(bus.transact(Transaction(BusOp.READ_LINE, 0x80, "m")))
        sim.run(until=500, detect_deadlock=False)
        (state,) = bus.inflight_tenures()
        assert state.master == "m"
        assert state.phase == "backed-off"
        assert state.waiting_on == ("owner",)
        assert state.retries == 1
        assert "waiting-on=owner" in state.describe()

    def test_bus_released_when_tenure_raises(self, fabric):
        sim, _memory, bus = make_bus(fabric=fabric)

        def bad_commit(_result):
            raise RuntimeError("commit exploded")

        proc = sim.process(
            bus.transact(Transaction(BusOp.READ, 0x0, "m"), commit=bad_commit)
        )
        proc.add_callback(lambda _e: None)  # swallow the failure
        sim.run()
        # The arbiter must not be left held by the dead tenure...
        assert bus._arbiter_for(0x0).holder is None
        assert bus.inflight_tenures() == []
        # ...so another master can still transact.
        result = run_txn(sim, bus, Transaction(BusOp.READ, 0x20, "n"))
        assert result is not None

    def test_completions_count_tenures(self, fabric):
        sim, _memory, bus = make_bus(fabric=fabric)
        run_txn(sim, bus, Transaction(BusOp.READ, 0x0, "m"))
        run_txn(sim, bus, Transaction(BusOp.WRITE, 0x0, "m", data=1))
        assert bus.completions == 2


class TestStats:
    def test_txn_counters(self):
        sim, _memory, bus = make_bus()
        run_txn(sim, bus, Transaction(BusOp.READ, 0x0, "m"))
        run_txn(sim, bus, Transaction(BusOp.WRITE, 0x0, "m", data=1))
        assert bus.stats.get("bus.txns") == 2
        assert bus.stats.get("bus.op.read") == 1
        assert bus.stats.get("bus.op.write") == 1

    def test_every_tenure_counts_once(self):
        sim, _memory, bus = make_bus()

        def master():
            for i in range(300):
                yield from bus.transact(Transaction(BusOp.READ, (i % 64) * 4, "m"))

        sim.process(master())
        sim.run()
        assert bus.stats.get("bus.txns") == 300

    def test_busy_ticks_accumulate(self):
        sim, _memory, bus = make_bus()
        run_txn(sim, bus, Transaction(BusOp.READ, 0x0, "m"))
        assert bus.stats.get("bus.busy_ticks") == 160


class TestCancellationAccounting:
    """Grant-time validate-cancels are not ARTRYs and count separately."""

    def test_cancel_counts_separately_from_artry(self, fabric):
        sim, _memory, bus = make_bus(fabric=fabric)
        proc = sim.process(
            bus.transact(
                Transaction(BusOp.READ, 0x0, "m"), validate=lambda: False
            )
        )
        sim.run()
        assert proc.value is None
        assert bus.stats.get("bus.cancelled") == 1
        assert bus.stats.get("bus.retries") == 0
        assert bus.completions == 0

    def test_cancellation_storm_raises_its_own_livelock(self, fabric):
        # A master whose tenure premise keeps vanishing at grant time
        # makes no progress, but txn.retries never moves (no ARTRY is
        # involved) — the old ceiling was blind to it.  The message
        # must name the actual failure, not a retry loop.
        sim, _memory, bus = make_bus(fabric=fabric, max_retries=5)

        def driver():
            while True:
                result = yield from bus.transact(
                    Transaction(BusOp.READ, 0x0, "m"), validate=lambda: False
                )
                assert result is None

        sim.process(driver())
        with pytest.raises(LivelockError) as exc_info:
            sim.run()
        error = exc_info.value
        assert error.master == "m"
        assert error.retries == 0  # zero ARTRYs: the counts disagree
        message = str(error)
        assert "cancellation storm" in message
        assert "validate-cancelled at grant 6 consecutive times" in message
        assert "ARTRY count: 0" in message
        assert "not an ARTRY retry loop" in message

    def test_completion_resets_the_cancel_streak(self, fabric):
        sim, _memory, bus = make_bus(fabric=fabric, max_retries=5)

        def driver():
            for _ in range(4):
                yield from bus.transact(
                    Transaction(BusOp.READ, 0x0, "m"), validate=lambda: False
                )
            yield from bus.transact(Transaction(BusOp.READ, 0x0, "m"))
            for _ in range(4):
                yield from bus.transact(
                    Transaction(BusOp.READ, 0x0, "m"), validate=lambda: False
                )

        sim.process(driver())
        sim.run()  # 4 + 4 cancels with a completion between: no storm
        assert bus.stats.get("bus.cancelled") == 8
        assert bus.completions == 1

    def test_artry_ceiling_message_reports_cancel_count(self, fabric):
        # The converse disagreement-proofing: an ARTRY livelock report
        # states how many grant-time cancels the master had, so the two
        # counters can never be conflated when reading a failure.
        sim, _memory, bus = make_bus(fabric=fabric, max_retries=2)
        bus.attach_snooper(StormSnooper(sim))
        sim.process(bus.transact(Transaction(BusOp.READ, 0x40, "m")))
        with pytest.raises(LivelockError) as exc_info:
            sim.run()
        message = str(exc_info.value)
        assert "livelocked retry loop" in message
        assert "validate-cancellations for m: 0" in message


class TestDetachDuringSnoopWindow:
    def test_detach_mid_window_keeps_the_window_consistent(self):
        # A snooper that detaches another snooper while the combinational
        # window resolves (fault-proxy teardown does this).  The window
        # iterates a snapshot, so every cache attached at the *start* of
        # the address phase is still consulted this tenure.
        sim, _memory, bus = make_bus()
        second = StubSnooper("second")

        class Detacher(Snooper):
            master_name = "detacher"

            def snoop(self, txn):
                if second in bus.snoopers:
                    bus.detach_snooper(second)
                return SnoopReply.OK

        bus.attach_snooper(Detacher())
        bus.attach_snooper(second)
        run_txn(sim, bus, Transaction(BusOp.READ, 0x100, "m"))
        assert second.seen == [(BusOp.READ, 0x100)]
        assert second not in bus.snoopers
        # The next tenure really does skip the detached snooper.
        run_txn(sim, bus, Transaction(BusOp.READ, 0x200, "m"))
        assert second.seen == [(BusOp.READ, 0x100)]


@pytest.mark.parametrize("fabric", OTHER_FABRICS)
class TestLivenessOnOtherFabrics(TestLiveness):
    """:class:`TestLiveness` on the split and directory fabrics."""


@pytest.mark.parametrize("fabric", OTHER_FABRICS)
class TestCancellationAccountingOnOtherFabrics(TestCancellationAccounting):
    """:class:`TestCancellationAccounting` on the split and directory fabrics."""
