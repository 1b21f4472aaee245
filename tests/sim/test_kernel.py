"""Unit tests for the event-driven kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import AllOf, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered

    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.triggered
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_callback_after_trigger_runs_immediately(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_callbacks_run_in_order(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(1))
        event.add_callback(lambda e: seen.append(2))
        event.succeed()
        sim.run()
        assert seen == [1, 2]


class TestTimeout:
    def test_back_to_back_timeouts_add_up(self, sim):
        def ticker():
            for _ in range(2000):
                yield sim.timeout(5)

        sim.process(ticker())
        sim.run()
        assert sim.now == 10_000

    def test_fires_at_delay(self, sim):
        fired = []

        def proc():
            yield sim.timeout(25)
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [25]

    def test_zero_delay_fires_now(self, sim):
        fired = []

        def proc():
            yield sim.timeout(0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_timeout_value_passthrough(self, sim):
        got = []

        def proc():
            value = yield sim.timeout(5, value="hello")
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["hello"]


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_processes_interleave_by_time(self, sim):
        order = []

        def worker(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(worker(10, "b"))
        sim.process(worker(5, "a"))
        sim.process(worker(20, "c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_tick_ordering_is_schedule_order(self, sim):
        order = []

        def worker(tag):
            yield sim.timeout(5)
            order.append(tag)

        for tag in ("x", "y", "z"):
            sim.process(worker(tag))
        sim.run()
        assert order == ["x", "y", "z"]

    def test_process_waits_on_event(self, sim):
        gate = sim.event()
        seen = []

        def waiter():
            value = yield gate
            seen.append((sim.now, value))

        def opener():
            yield sim.timeout(30)
            gate.succeed("open")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert seen == [(30, "open")]

    def test_fork_join_via_process_event(self, sim):
        def child():
            yield sim.timeout(10)
            return 99

        def parent():
            result = yield sim.process(child())
            return result + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 100

    def test_yielding_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_propagates_to_waiter(self, sim):
        def failing():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(failing())
            except ValueError as exc:
                return f"caught {exc}"

        p = sim.process(parent())
        sim.run()
        assert p.value == "caught boom"

    def test_unhandled_exception_escapes_run(self, sim):
        def failing():
            yield sim.timeout(1)
            raise RuntimeError("unwatched")

        sim.process(failing())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(5)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestAlreadyFiredEvents:
    """A yielded event that already fired resumes the process at once,
    in a loop: any number of them in a row costs no stack."""

    def test_five_thousand_fired_yields_in_a_row(self, sim):
        fired = sim.event()
        fired.succeed("ok")

        def proc():
            yield sim.timeout(0)  # let ``fired`` fire first
            got = []
            for _ in range(5000):
                got.append((yield fired))
            return len(got), got[-1], sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == (5000, "ok", 0)

    def test_failed_fired_event_is_thrown_in(self, sim):
        failed = sim.event()
        failed.fail(ValueError("boom"))

        def proc():
            yield sim.timeout(0)
            try:
                yield failed
            except ValueError as exc:
                return str(exc)

        p = sim.process(proc())
        sim.run()
        assert p.value == "boom"


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        def worker(n):
            yield sim.timeout(n)
            return n

        procs = [sim.process(worker(n)) for n in (3, 1, 2)]
        done = []

        def joiner():
            values = yield sim.all_of(procs)
            done.append((sim.now, values))

        sim.process(joiner())
        sim.run()
        assert done == [(3, [3, 1, 2])]

    def test_all_of_empty_fires_immediately(self, sim):
        done = []

        def joiner():
            yield sim.all_of([])
            done.append(sim.now)

        sim.process(joiner())
        sim.run()
        assert done == [0]


class TestRun:
    def test_run_until_stops_clock(self, sim):
        def endless():
            while True:
                yield sim.timeout(10)

        sim.process(endless(), daemon=True)
        assert sim.run(until=35) == 35
        assert sim.now == 35

    def test_run_until_does_not_fire_later_events(self, sim):
        fired = []

        def late():
            yield sim.timeout(100)
            fired.append(sim.now)

        sim.process(late(), daemon=True)
        sim.run(until=50)
        assert fired == []

    def test_stop_event_halts_run(self, sim):
        stop = sim.event()
        ticks = []

        def ticker():
            while True:
                yield sim.timeout(10)
                ticks.append(sim.now)
                if sim.now >= 30:
                    stop.succeed()

        sim.process(ticker(), daemon=True)
        sim.run(stop_event=stop)
        assert ticks[-1] == 30

    def test_max_events_guard(self, sim):
        def endless():
            while True:
                yield sim.timeout(1)

        sim.process(endless(), daemon=True)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_deadlock_detection(self, sim):
        def stuck():
            yield sim.event()  # never triggered

        sim.process(stuck(), name="stuck-one")
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        assert "stuck-one" in str(excinfo.value)

    def test_daemon_processes_do_not_deadlock(self, sim):
        def service():
            yield sim.event()

        sim.process(service(), daemon=True)

        def worker():
            yield sim.timeout(5)

        sim.process(worker())
        sim.run()  # must not raise

    def test_detect_deadlock_opt_out(self, sim):
        def stuck():
            yield sim.event()

        sim.process(stuck())
        sim.run(detect_deadlock=False)  # must not raise

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek_reports_next_time(self, sim):
        sim.timeout(42)
        assert sim.peek() == 42

    def test_determinism_across_runs(self):
        def build():
            sim = Simulator()
            order = []

            def worker(tag, delay):
                for _ in range(3):
                    yield sim.timeout(delay)
                    order.append((sim.now, tag))

            sim.process(worker("a", 7))
            sim.process(worker("b", 5))
            sim.run()
            return order

        assert build() == build()


class TestSlots:
    """Kernel event types must stay slotted (no per-instance __dict__).

    Regression: a combinator once omitted __slots__, silently
    reintroducing a __dict__ on every one of its instances.
    """

    def test_kernel_event_types_have_no_dict(self, sim):
        def gen():
            yield sim.timeout(1)

        instances = [
            sim.event(),
            sim.timeout(3),
            sim.process(gen()),
            AllOf(sim, [sim.event()]),
        ]
        for instance in instances:
            assert not hasattr(instance, "__dict__"), type(instance).__name__

    def test_event_subclasses_declare_slots(self):
        from repro.sim import kernel

        for cls in (kernel.Event, kernel.Timeout, kernel.Process,
                    kernel.AllOf):
            assert "__slots__" in cls.__dict__, cls.__name__


class TestCombinatorFailure:
    def test_all_of_propagates_child_failure(self, sim):
        bad = sim.event()
        slow = sim.timeout(5)
        caught = []

        def joiner():
            try:
                yield sim.all_of([slow, bad])
            except RuntimeError as exc:
                caught.append((sim.now, str(exc)))

        def failer():
            yield sim.timeout(2)
            bad.fail(RuntimeError("boom"))

        sim.process(joiner())
        sim.process(failer(), daemon=True)
        sim.run()
        # Fails as soon as the child fails -- no waiting for the rest.
        assert caught == [(2, "boom")]

    def test_all_of_failure_only_raised_once(self, sim):
        first, second = sim.event(), sim.event()
        caught = []

        def joiner():
            try:
                yield sim.all_of([first, second])
            except RuntimeError as exc:
                caught.append(str(exc))

        def failer():
            yield sim.timeout(1)
            first.fail(RuntimeError("first"))
            second.fail(RuntimeError("second"))

        sim.process(joiner())
        sim.process(failer(), daemon=True)
        sim.run()
        assert caught == ["first"]


class TestRunUntilBoundaries:
    def test_until_exactly_on_event_fires_it(self, sim):
        fired = []

        def proc():
            yield sim.timeout(10)
            fired.append(sim.now)

        sim.process(proc(), daemon=True)
        assert sim.run(until=10) == 10
        assert fired == [10]

    def test_until_between_events_advances_clock_only(self, sim):
        fired = []

        def proc():
            yield sim.timeout(10)
            fired.append(sim.now)
            yield sim.timeout(10)
            fired.append(sim.now)

        sim.process(proc(), daemon=True)
        assert sim.run(until=15) == 15
        assert fired == [10]
        assert sim.run(until=25) == 25
        assert fired == [10, 20]

    def test_until_fires_zero_delay_chain_at_boundary(self, sim):
        log = []

        def proc():
            yield sim.timeout(10)
            ev = sim.event()
            ev.succeed("x")
            log.append((sim.now, (yield ev)))

        sim.process(proc(), daemon=True)
        sim.run(until=10)
        assert log == [(10, "x")]

    def test_until_before_any_event(self, sim):
        fired = []

        def proc():
            yield sim.timeout(100)
            fired.append(sim.now)

        sim.process(proc(), daemon=True)
        assert sim.run(until=5) == 5
        assert sim.now == 5
        assert fired == []


class TestAdvance:
    """``Simulator.advance`` moves the clock in place only when the
    caller's own timeout would have fired next; every refusal leaves
    the simulator untouched."""

    def _probe(self, sim, delay, log, before=None):
        """A process that waits ``delay`` after ``before`` the way the
        model does, logging whether advance() took it in place."""

        def proc():
            if before is not None:
                yield before
            else:
                yield sim.timeout(0)
            now = sim.now
            advanced = sim.advance(delay)
            log.append((advanced, now, sim.now))
            if not advanced:
                yield sim.timeout(delay)

        return sim.process(proc())

    def test_empty_queue_advances_and_counts_one_event(self, sim):
        log = []
        self._probe(sim, 30, log)
        sim.run()
        assert log == [(True, 0, 30)]
        # bootstrap, timeout(0), the advance, the process's own end
        assert sim.events_fired == 4

    def test_counts_match_the_timeout_it_replaces(self):
        def run(use_advance):
            sim = Simulator()

            def ticker():
                for _ in range(50):
                    if not (use_advance and sim.advance(7)):
                        yield sim.timeout(7)

            def other():
                for _ in range(9):
                    yield sim.timeout(33)

            sim.process(ticker())
            sim.process(other())
            sim.run()
            return sim.now, sim.events_fired

        assert run(True) == run(False) == (350, 63)

    def test_heap_entry_at_the_same_tick_is_refused(self, sim):
        log = []
        sim.timeout(30)
        self._probe(sim, 30, log)
        sim.run()
        assert log == [(False, 0, 0)]

    def test_heap_entry_strictly_later_is_allowed(self, sim):
        log = []
        sim.timeout(31)
        self._probe(sim, 30, log)
        sim.run()
        assert log == [(True, 0, 30)]

    def test_queued_zero_delay_event_is_refused(self, sim):
        log = []

        def proc():
            yield sim.timeout(0)
            sim.event().succeed()
            log.append(sim.advance(5))

        sim.process(proc())
        sim.run()
        assert log == [False]

    def test_until_itself_is_allowed(self, sim):
        log = []
        self._probe(sim, 10, log)
        # run(until=10) fires a timeout due at 10, so it may be advanced to
        sim.run(until=10, detect_deadlock=False)
        assert log == [(True, 0, 10)]

    def test_until_one_past_is_refused(self, sim):
        log = []
        self._probe(sim, 11, log)
        sim.run(until=10, detect_deadlock=False)
        assert log == [(False, 0, 0)]

    def test_refused_outside_run(self, sim):
        assert sim.advance(5) is False
        sim.run()  # run() arms advance() only while it runs
        assert sim.advance(5) is False
        assert sim.now == 0
        assert sim.events_fired == 0

    def test_refused_under_step(self, sim):
        log = []
        sim.run()
        self._probe(sim, 5, log)
        while sim.peek() is not None:
            sim.step()
        assert log == [(False, 0, 0)]

    def test_refused_after_the_stop_event_fired(self, sim):
        log = []
        stop = sim.timeout(4)
        self._probe(sim, 5, log, before=stop)
        assert sim.run(stop_event=stop) == 4
        assert log == [(False, 4, 4)]

    def test_refused_while_another_waiter_is_pending(self, sim):
        log = []
        gate = sim.timeout(3)
        self._probe(sim, 10, log, before=gate)
        self._probe(sim, 5, log, before=gate)
        sim.run()
        # the first waiter would run ahead of the second: refused; the
        # last waiter has nothing left behind it at this tick
        assert log == [(False, 3, 3), (True, 3, 8)]

    def test_negative_delay_is_refused(self, sim):
        log = []
        self._probe(sim, -1, log)
        # refused, so the caller's timeout(-1) reports the error
        with pytest.raises(SimulationError, match="negative timeout"):
            sim.run()
        assert log == [(False, 0, 0)]

    def test_max_events_budget(self):
        def run(use_advance, budget):
            sim = Simulator()

            def ticker():
                # Bounded: a kernel that ignores the budget finishes the
                # ticker and fails the raises-check instead of hanging.
                for _ in range(budget + 5):
                    if not (use_advance and sim.advance(10)):
                        yield sim.timeout(10)

            sim.process(ticker())
            with pytest.raises(SimulationError, match="max_events"):
                sim.run(max_events=budget)
            return sim.now, sim.events_fired

        for budget in (1, 2, 3, 50):
            assert run(True, budget) == run(False, budget) == (
                10 * (budget - 1), budget
            )
