"""Unit tests for the FIFO mutex."""

import pytest

from repro.errors import SimulationError
from repro.sim import Mutex, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_uncontended_acquire_is_immediate(sim):
    mutex = Mutex(sim)
    log = []

    def proc():
        yield mutex.acquire()
        log.append(sim.now)
        mutex.release()

    sim.process(proc())
    sim.run()
    assert log == [0]
    assert not mutex.locked


def test_fifo_ordering(sim):
    mutex = Mutex(sim)
    order = []

    def worker(tag, hold):
        yield mutex.acquire()
        order.append(tag)
        yield sim.timeout(hold)
        mutex.release()

    for tag in ("a", "b", "c"):
        sim.process(worker(tag, 10))
    sim.run()
    assert order == ["a", "b", "c"]


def test_contention_counted(sim):
    mutex = Mutex(sim)

    def worker():
        yield mutex.acquire()
        yield sim.timeout(5)
        mutex.release()

    sim.process(worker())
    sim.process(worker())
    sim.run()
    assert mutex.acquisitions == 2
    assert mutex.contentions == 1


def test_release_unheld_raises(sim):
    mutex = Mutex(sim)
    with pytest.raises(SimulationError):
        mutex.release()


def test_waiting_count(sim):
    mutex = Mutex(sim)
    mutex.acquire()
    mutex.acquire()
    mutex.acquire()
    assert mutex.locked
    assert mutex.waiting == 2


def test_handoff_keeps_lock_held(sim):
    mutex = Mutex(sim)
    state = []

    def first():
        yield mutex.acquire()
        yield sim.timeout(5)
        mutex.release()
        state.append(mutex.locked)  # handed to second, still locked

    def second():
        yield mutex.acquire()
        mutex.release()

    sim.process(first())
    sim.process(second())
    sim.run()
    assert state == [True]


class TestInPlaceGrant:
    """A free port is granted in place exactly when ``sim.advance(0)``
    says its queued grant would be the next event run() fires; in every
    other case the grant is queued, and same-tick order is unchanged."""

    def _probe(self, sim, mutex, log, tag="p", before=None, hold=0):
        """A process that takes ``mutex`` after ``before`` the way the
        model does, logging whether the grant had fired in place."""

        def proc():
            yield before if before is not None else sim.timeout(0)
            grant = mutex.acquire()
            log.append((tag, grant.triggered))
            yield grant
            log.append((tag, "holds", sim.now))
            if hold:
                yield sim.timeout(hold)
            mutex.release()

        return sim.process(proc())

    def test_counts_and_order_match_the_queued_grant(self):
        def drive(stepwise):
            sim = Simulator()
            mutex = Mutex(sim)
            log = []

            def user(tag, delay, hold, rounds):
                for _ in range(rounds):
                    yield sim.timeout(delay)
                    grant = mutex.acquire()
                    log.append((tag, "asks", sim.now, grant.triggered))
                    yield grant
                    log.append((tag, "holds", sim.now))
                    yield sim.timeout(hold)
                    mutex.release()

            sim.process(user("a", 3, 4, 6))
            sim.process(user("b", 5, 2, 6))
            if stepwise:  # step() never grants in place
                while sim.peek() is not None:
                    sim.step()
            else:
                sim.run()
            granted_in_place = [e for e in log if e[1] == "asks" and e[3]]
            order = [e[:3] for e in log]
            return (order, sim.events_fired, sim.now, mutex.acquisitions,
                    mutex.contentions), len(granted_in_place)

        (run_result, in_place), (step_result, queued) = drive(False), drive(True)
        assert run_result == step_result
        assert in_place > 0 and queued == 0
        assert run_result[1:] == (40, 44, 12, 6)

    def test_free_port_is_granted_in_place_and_counted(self, sim):
        mutex = Mutex(sim)
        log = []
        self._probe(sim, mutex, log)
        sim.run()
        assert log == [("p", True), ("p", "holds", 0)]
        # bootstrap, timeout(0), the grant, the process's own end
        assert sim.events_fired == 4
        assert (mutex.acquisitions, mutex.contentions) == (1, 0)
        assert not mutex.locked

    def test_thousands_of_grants_in_a_row(self, sim):
        mutex = Mutex(sim)

        def proc():
            yield sim.timeout(0)
            for _ in range(5000):
                yield mutex.acquire()
                mutex.release()
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0
        assert sim.events_fired == 5003
        assert (mutex.acquisitions, mutex.contentions) == (5000, 0)

    def test_held_port_queues_the_grant(self, sim):
        mutex = Mutex(sim)
        log = []
        self._probe(sim, mutex, log, tag="a", before=sim.timeout(1), hold=5)
        self._probe(sim, mutex, log, tag="b", before=sim.timeout(2))
        sim.run()
        assert log == [("a", True), ("a", "holds", 1), ("b", False),
                       ("b", "holds", 6)]
        assert (mutex.acquisitions, mutex.contentions) == (2, 1)

    def test_pending_same_tick_event_queues_the_grant(self, sim):
        mutex = Mutex(sim)
        log = []

        def proc():
            yield sim.timeout(0)
            other = sim.event()
            other.add_callback(lambda _e: log.append("other"))
            other.succeed()
            grant = mutex.acquire()
            log.append(("p", grant.triggered))
            yield grant
            log.append("holds")

        sim.process(proc())
        sim.run()
        assert log == [("p", False), "other", "holds"]
        assert sim.events_fired == 5

    def test_heap_entry_due_now_queues_the_grant(self, sim):
        mutex = Mutex(sim)
        log = []
        self._probe(sim, mutex, log, before=sim.timeout(5))
        sim.timeout(5).add_callback(lambda _e: log.append("heap"))
        sim.run()
        assert log == [("p", False), "heap", ("p", "holds", 5)]

    def test_step_queues_the_grant(self, sim):
        mutex = Mutex(sim)
        log = []
        self._probe(sim, mutex, log)
        while sim.peek() is not None:
            sim.step()
        assert log == [("p", False), ("p", "holds", 0)]
        assert sim.events_fired == 4

    def test_max_events_budget(self):
        def run(budget):
            sim = Simulator()
            mutex = Mutex(sim)
            granted = []

            def spinner():
                for _ in range(100):  # bounded, so a broken guard fails fast
                    grant = mutex.acquire()
                    granted.append(grant.triggered)
                    yield grant
                    mutex.release()

            sim.process(spinner())
            with pytest.raises(SimulationError, match="max_events"):
                sim.run(max_events=budget)
            return sim.events_fired, mutex.acquisitions, granted[-1]

        # the grant that would be the budget-th event is queued instead
        for budget in (1, 2, 3, 50):
            assert run(budget) == (budget, budget, False)

    def test_fired_stop_event_queues_the_grant(self, sim):
        mutex = Mutex(sim)
        log = []
        stop = sim.timeout(4)
        self._probe(sim, mutex, log, before=stop)
        assert sim.run(stop_event=stop) == 4
        assert log == [("p", False)]
        assert mutex.locked and sim.events_fired == 2

    def test_non_last_waiter_queues_the_grant(self, sim):
        mutex = Mutex(sim)
        log = []
        gate = sim.timeout(3)
        self._probe(sim, mutex, log, tag="a", before=gate)

        def later_waiter():
            yield gate
            log.append("b runs")

        sim.process(later_waiter())
        sim.run()
        # "a" would otherwise hold the port before "b" had run at all
        assert log == [("a", False), "b runs", ("a", "holds", 3)]
