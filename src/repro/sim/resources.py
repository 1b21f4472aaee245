"""Synchronization primitives for simulation processes."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..errors import SimulationError
from .kernel import Event, Simulator

__all__ = ["Mutex"]


class Mutex:
    """A FIFO mutual-exclusion lock for processes.

    Models a single-ported resource (e.g. a cache's tag/data port shared
    by the processor side and the snoop-push machinery).  FIFO ordering
    matters: a drain queued behind a spinning core must win the port the
    moment the core releases it, or drains starve.

    Usage inside a process::

        yield mutex.acquire()
        try:
            ...
        finally:
            mutex.release()

    A free lock is granted in place (:meth:`Event.succeed_in_place`)
    when ``sim.advance(0)`` says the grant would be the next event run()
    fires anyway: the returned event has already fired (and counts as
    one fired event), so the process resumes without a trip through the
    event queue.  Otherwise (a held lock, other work due at this tick,
    outside run()) the grant is queued as usual.  Either way the caller
    must yield the grant straight away.
    """

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._holder: Optional[Event] = None
        self._waiters: Deque[Event] = deque()
        self.acquisitions = 0
        self.contentions = 0

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._holder is not None

    @property
    def waiting(self) -> int:
        """Number of queued acquirers."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """An event that fires when the caller holds the lock."""
        grant = Event(self.sim)
        if self._holder is None:
            self._holder = grant
            self.acquisitions += 1
            grant.succeed_in_place()
        else:
            self.contentions += 1
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Release the lock, handing it to the next queued acquirer."""
        if self._holder is None:
            raise SimulationError(f"release of unheld mutex {self.name!r}")
        if self._waiters:
            nxt = self._waiters.popleft()
            self._holder = nxt
            self.acquisitions += 1
            nxt.succeed()
        else:
            self._holder = None
