"""Event-driven simulation kernel.

A deliberately small discrete-event engine in the style of SimPy, tuned
for the needs of a shared-bus SoC model:

* integer time (1 tick == 1 ns by convention, see :mod:`repro.sim.clock`),
* generator-based processes (:class:`Process`) that ``yield`` events,
* deterministic ordering — events scheduled for the same tick fire in
  scheduling order (a monotone sequence number breaks ties).

The kernel knows nothing about buses or caches; those are modelled as
processes and shared objects in higher layers.

Fast path
---------
Triggering an event always means "fire at the current tick, after
everything already queued".  Those zero-delay firings dominate real
runs (every ``succeed``, mutex hand-off, process resume...), so they
bypass the time heap entirely: a plain FIFO run queue holds them, and
the scheduler drains heap entries due at the current time before the
FIFO.  Ordering is unchanged — see ``docs/timing-model.md`` ("kernel
fast path & determinism guarantees") for the argument.

The other common case is a process waiting out a fixed delay when
nothing else is due before it ends: a core's ALU instruction, a bus
phase.  :meth:`Simulator.advance` lets such a process move ``now``
forward in place instead of scheduling a :class:`Timeout`, and refuses
whenever the timeout would not have been the very next event to fire.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import DeadlockError, SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "AllOf",
]


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    *triggers* it, resuming every waiting process at the current
    simulation time.  Triggering twice is an error: events are one-shot.
    """

    __slots__ = ("sim", "value", "_ok", "_triggered", "_scheduled", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.value: Any = None
        self._ok = True
        self._triggered = False
        self._scheduled = False
        self._callbacks: list[Callable[[Event], None]] = []

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has fired (waiters resumed or queued)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True when the event succeeded rather than failed."""
        return self._ok

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        self._trigger(value, ok=True)
        return self

    def succeed_in_place(self, value: Any = None) -> "Event":
        """Trigger a fresh event that only the running process will wait
        on, firing it right here when ``sim.advance(0)`` says its queued
        firing would be the next event run() fires anyway.

        Fired in place, the event counts as one fired event and the
        process that yields it resumes without a trip through the event
        queue.  Otherwise (other work due at this tick, outside run(),
        under :meth:`Simulator.step`) this is :meth:`succeed`.
        """
        if self.sim.advance(0):
            self.value = value
            self._scheduled = self._triggered = True
        else:
            self._trigger(value, ok=True)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiters."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"Event.fail() needs an exception, got {exc!r}")
        self._trigger(exc, ok=False)
        return self

    def _trigger(self, value: Any, ok: bool) -> None:
        if self._triggered or self._scheduled:
            raise SimulationError("event triggered twice")
        self.value = value
        self._ok = ok
        self._scheduled = True
        # Zero-delay: straight onto the same-tick run queue, no heap.
        self.sim._fifo.append(self)

    def _fire(self) -> None:
        """Invoked by the simulator when this event's turn arrives."""
        self._triggered = True
        callbacks, self._callbacks = self._callbacks, []
        if len(callbacks) > 1:
            # While any waiter but the last runs, a later one is still
            # due at this tick, so no process may advance the clock.
            sim = self.sim
            sim._held += 1
            try:
                for callback in callbacks[:-1]:
                    callback(self)
            finally:
                sim._held -= 1
            callbacks = callbacks[-1:]
        for callback in callbacks:
            callback(self)

    # -- waiting ----------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event already fired, the callback runs immediately; late
        waiters never block forever.
        """
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        delay = int(delay)
        # Inlined Event.__init__ + scheduling: a Timeout is created per
        # modelled cycle boundary, making this the hottest constructor
        # in the simulator.
        self.sim = sim
        self.value = value
        self._ok = True
        self._triggered = False
        self._scheduled = True
        self._callbacks = []
        self.delay = delay
        if delay == 0:
            sim._fifo.append(self)
        else:
            heappush(sim._queue, (sim.now + delay, sim._sequence, self))
            sim._sequence += 1


class Process(Event):
    """A generator driven by the events it yields.

    The generator may yield:

    * an :class:`Event` — the process resumes when it triggers, receiving
      ``event.value`` as the result of the ``yield`` expression, and
    * nothing else; yielding a non-event is a :class:`SimulationError`.

    A process is itself an event and triggers with the generator's return
    value, so processes can wait on each other (fork/join).
    """

    __slots__ = ("generator", "name", "daemon")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "", daemon: bool = False):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.daemon = daemon
        # Kick-start on the current tick, after already-queued events.
        bootstrap = Event(sim)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered and not self._scheduled

    # -- driving ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._triggered or self._scheduled:
            return
        generator = self.generator
        # Events that already fired (a finished process, a mutex grant
        # taken in place) resume the generator in this loop, not by
        # recursion, so any number of them in a row costs no stack.
        while True:
            try:
                if event._ok:
                    target = generator.send(event.value)
                else:
                    target = generator.throw(event.value)
            except StopIteration as stop:
                self._trigger(stop.value, ok=True)
                return
            except BaseException as exc:
                if self._callbacks:
                    self._trigger(exc, ok=False)
                    return
                raise
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event instances (use sim.timeout / sim.event)"
                )
            if not target._triggered:
                target._callbacks.append(self._resume)
                return
            event = target


class AllOf(Event):
    """Triggers once every child event has triggered (join barrier)."""

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._remaining = len(events)
        self.value = [None] * len(events)
        if not events:
            self.succeed(self.value)
            return
        for index, event in enumerate(events):
            event.add_callback(self._make_collector(index))

    def _make_collector(self, index: int) -> Callable[[Event], None]:
        def collect(event: Event) -> None:
            if self._triggered or self._scheduled:
                return
            if not event.ok:
                self.fail(event.value)
                return
            self.value[index] = event.value
            self._remaining -= 1
            if self._remaining == 0:
                self._trigger(self.value, ok=True)

        return collect

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        return super().succeed(value)


#: ``Simulator._horizon`` outside run(), and its ``_allowance`` when
#: run() has no ``max_events`` budget
_NEVER = -1
_UNBOUNDED = 1 << 62


# One scheduler per platform: a __dict__ here is off the per-event path.
class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()

        def worker():
            yield sim.timeout(10)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert proc.value == "done"
    """

    def __init__(self):
        self.now: int = 0
        #: the time heap: (time, sequence, event), future events only
        self._queue: list[tuple[int, int, Event]] = []
        #: the same-tick run queue: zero-delay events in schedule order
        self._fifo: deque[Event] = deque()
        self._sequence = 0
        self._processes: list[Process] = []
        #: cumulative events fired over the simulator's lifetime — the
        #: denominator engine benchmarks use to express work done per
        #: wall-clock second in kernel terms
        self.events_fired: int = 0
        # advance() state, set by run(): the latest time it may reach,
        # how many more events the max_events budget allows, the run's
        # stop event, and how many multi-waiter firings are in progress
        self._horizon: int = _NEVER
        self._allowance: int = 0
        self._stop: Optional[Event] = None
        self._held: int = 0

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event (trigger it with ``.succeed()``)."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ticks from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "", daemon: bool = False) -> Process:
        """Register ``generator`` as a process starting this tick.

        Daemon processes (service loops that never finish) are excluded
        from deadlock detection in :meth:`run`.
        """
        proc = Process(self, generator, name=name, daemon=daemon)
        self._processes.append(proc)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier: fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def advance(self, delay: int) -> bool:
        """Wait ``delay`` ticks in place, if nothing could tell.

        Returns True, with ``now`` moved forward by ``delay`` and the
        wait counted as one fired event, exactly when a
        ``timeout(delay)`` yielded here would be the next event run()
        fires.  Otherwise (always outside run(), e.g. under
        :meth:`step`) it returns False and changes nothing, and the
        caller yields the timeout::

            if not sim.advance(delay):
                yield sim.timeout(delay)

        ``docs/timing-model.md`` argues why these refusals suffice.
        """
        when = self.now + delay
        if (
            self._fifo  # same-tick work runs first
            or when > self._horizon  # past until, or not inside run()
            or delay < 0
            or self._held  # another waiter of this event is still due
            or self._allowance <= 0  # max_events reached first
        ):
            return False
        queue = self._queue
        # A heap entry at ``when`` has the smaller sequence: it fires first.
        if queue and queue[0][0] <= when:
            return False
        stop = self._stop
        if stop is not None and stop._triggered:
            return False  # run() returns before firing anything else
        self.now = when
        self._allowance -= 1
        self.events_fired += 1
        return True

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        if self._fifo:
            return self.now
        return self._queue[0][0] if self._queue else None

    @property
    def queue_depth(self) -> int:
        """Scheduled-but-unfired events (heap + same-tick FIFO)."""
        return len(self._queue) + len(self._fifo)

    def step(self) -> None:
        """Fire the single next event (advancing ``now`` to its time).

        Heap entries due at the current tick predate anything on the
        same-tick FIFO (they were scheduled strictly earlier), so they
        fire first — the merged order is identical to the old single
        heap's (time, sequence) order.
        """
        queue = self._queue
        if queue and (not self._fifo or queue[0][0] == self.now):
            when, _seq, event = heappop(queue)
            if when < self.now:  # pragma: no cover - queue is monotone
                raise SimulationError("event queue went backwards")
            self.now = when
            event._fire()
        elif self._fifo:
            self._fifo.popleft()._fire()
        else:
            raise SimulationError("step() on an empty event queue")
        self.events_fired += 1

    def run(
        self,
        until: Optional[int] = None,
        stop_event: Optional[Event] = None,
        max_events: Optional[int] = None,
        detect_deadlock: bool = True,
    ) -> int:
        """Run until the queue drains, ``until`` ticks, or ``stop_event``.

        Returns the simulation time at which the run stopped.  Raises
        :class:`DeadlockError` when the event queue drains while live
        processes are still waiting — the classic symptom of the paper's
        hardware-deadlock scenario (pass ``detect_deadlock=False`` for
        step-wise use where external code triggers events between runs).
        """
        fired = 0
        queue = self._queue
        fifo = self._fifo
        fifo_pop = fifo.popleft
        # Events counted before this run; advance() adds its own to
        # events_fired directly.
        base = self.events_fired
        self._horizon = until if until is not None else _UNBOUNDED
        self._stop = stop_event
        self._allowance = max_events - 1 if max_events is not None else _UNBOUNDED
        try:
            while queue or fifo:
                if stop_event is not None and stop_event._triggered:
                    return self.now
                if until is not None:
                    next_time = self.now if fifo else queue[0][0]
                    if next_time > until:
                        self.now = until
                        return self.now
                if queue and (not fifo or queue[0][0] == self.now):
                    # Due heap entries predate every FIFO entry at this
                    # tick (their delay was >0, so they were scheduled on
                    # an earlier tick): they fire before the same-tick
                    # FIFO.
                    when, _seq, event = heappop(queue)
                    self.now = when
                    event._fire()
                else:
                    # Batch-drain the same-tick run queue before the
                    # clock may advance.
                    fifo_pop()._fire()
                fired += 1
                if max_events is not None:
                    total = fired + self.events_fired - base
                    if total >= max_events:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    # Advances during the next event each complete one
                    # event: none may complete the max_events-th.
                    self._allowance = max_events - total - 1
        finally:
            # One add per run() call, off the per-event path.
            self.events_fired += fired
            self._horizon = _NEVER
            self._stop = None
        stuck = [p for p in self._processes if p.is_alive and not p.daemon]
        if detect_deadlock and stuck:
            waiting = [p.name for p in stuck]
            raise DeadlockError(
                "simulation stalled with live processes waiting: "
                + ", ".join(waiting)
            )
        if until is not None and self.now < until:
            self.now = until
        return self.now
