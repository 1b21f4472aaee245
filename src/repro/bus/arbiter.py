"""Bus arbitration.

The arbiter hands out exclusive bus tenures.  Requests carry a
:class:`~repro.bus.types.Priority`:

* ``DRAIN`` — snoop pushes (write-backs forced by a snoop hit).  The
  paper's platforms hand the bus to the snooping processor immediately
  after ARTRY (BOFF on the Intel486 side, ARTRY/BG on the PowerPC side);
  drains therefore always win.
* ``RETRY`` — a master re-issuing a transaction that was ARTRY'd.
* ``NORMAL`` — fresh requests.

The DRAIN and RETRY bands are always served FIFO: they carry
correctness-critical orderings.  The *service discipline* for fresh
(NORMAL) requests is the scale-out study knob (cf. arXiv:1004.3560,
which compares service disciplines on a shared-bus multiprocessor):

* :class:`FixedPriorityArbiter` — first-come-first-served (FCFS): FIFO
  arrival order, every master eventually served.  The default.
* :class:`MasterPriorityArbiter` — static per-master priority: the
  master with the lowest priority rank always wins.  Low-rank masters
  see minimal arbitration latency; high-rank masters can starve under
  load — the discipline's defining trade-off.
* :class:`RoundRobinArbiter` — a rotation pointer over the masters
  (first-request order).  After each grant the pointer moves past the
  grantee, so over any window with all masters requesting, grants are
  evenly distributed and no master waits more than one full rotation.

:data:`ARBITERS` maps the discipline names used by
:class:`~repro.core.platform.PlatformConfig` (``"fcfs"``/``"fixed"``,
``"priority"``, ``"round-robin"``) to these classes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import BusError
from ..sim import Event, Simulator
from .types import Priority

__all__ = [
    "Arbiter",
    "FixedPriorityArbiter",
    "MasterPriorityArbiter",
    "RoundRobinArbiter",
    "ARBITERS",
]

#: every band, most urgent first, and the two FIFO bands above NORMAL;
#: built once, because iterating the enum class costs a generator per call
_BANDS = tuple(Priority)
_URGENT = (Priority.DRAIN, Priority.RETRY)


class Arbiter:
    """Base arbiter: three priority bands, exclusive grant semantics.

    Masters call :meth:`request` (an event to wait on) and must call
    :meth:`release` when their tenure ends.

    A request that meets a free bus is granted in place
    (:meth:`Event.succeed_in_place`): when ``sim.advance(0)`` says the
    queued grant would be the next event run() fires anyway, the
    returned event has already fired and the requesting process
    resumes without a trip through the event queue.  ``_select`` runs
    either way, so the policy's state and the grant counters move as
    for a queued grant.  A grant handed over in :meth:`release` always
    queues: it wakes a process other than the one running.  The caller
    must yield the grant straight away.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._queues: dict[Priority, Deque[Tuple[str, Event]]] = {
            level: deque() for level in _BANDS
        }
        self._holder: Optional[str] = None
        self.grants = 0
        #: per-master grant counts — the fairness study's raw data
        self.grants_by_master: Dict[str, int] = {}

    @property
    def holder(self) -> Optional[str]:
        """Name of the master currently holding the bus, if any."""
        return self._holder

    @property
    def busy(self) -> bool:
        """True while a tenure is in progress."""
        return self._holder is not None

    def request(self, master: str, priority: Priority = Priority.NORMAL) -> Event:
        """Queue a bus request; the returned event fires on grant."""
        grant = Event(self.sim)
        self._queues[priority].append((master, grant))
        if self._holder is None:
            self._grant_next(grant)
        return grant

    def release(self, master: str) -> None:
        """End the current tenure (must be called by the holder)."""
        if self._holder != master:
            raise BusError(f"{master} released the bus but {self._holder} holds it")
        self._holder = None
        self._grant_next()

    def pending(self) -> int:
        """Number of queued requests across all levels."""
        return sum(len(q) for q in self._queues.values())

    def snapshot(self) -> dict:
        """Diagnostic view: holder, grant count, queued masters per band."""
        return {
            "holder": self._holder,
            "grants": self.grants,
            "queued": {
                level.name.lower(): [master for master, _ in queue]
                for level, queue in self._queues.items()
            },
        }

    # -- selection policy --------------------------------------------------
    def _grant_next(self, mine: Optional[Event] = None) -> None:
        """Grant the bus to the policy's choice; ``mine`` is the request
        the running process just queued, the only grant that may fire
        in place."""
        choice = self._select()
        if choice is None:
            return
        master, grant = choice
        self._holder = master
        self.grants += 1
        self.grants_by_master[master] = self.grants_by_master.get(master, 0) + 1
        if grant is mine:
            grant.succeed_in_place(master)
        else:
            grant.succeed(master)

    def _select(self) -> Optional[Tuple[str, Event]]:
        raise NotImplementedError


class FixedPriorityArbiter(Arbiter):
    """FCFS: FIFO within each band; bands strictly ordered (default).

    Historically named for its strictly ordered priority *bands*; the
    per-master discipline inside the NORMAL band is first-come-first-
    served arrival order.
    """

    def _select(self) -> Optional[Tuple[str, Event]]:
        for level in _BANDS:
            queue = self._queues[level]
            if queue:
                return queue.popleft()
        return None


class MasterPriorityArbiter(Arbiter):
    """Static per-master priority inside the NORMAL band.

    ``ranking`` fixes the priority order explicitly (first entry wins);
    masters absent from it — or all masters, when no ranking is given —
    rank below every ranked master, in first-request order.  Ties in
    rank cannot occur: each master has exactly one position.  DRAIN and
    RETRY stay FIFO (correctness-critical orderings).

    Under sustained load from a low-rank master, higher-rank masters
    can starve indefinitely; the retry band keeps ARTRY'd transactions
    ahead of fresh ones, so starvation shows up as unbounded NORMAL
    queueing delay, never as a wedged drain.
    """

    def __init__(self, sim: Simulator, ranking: Sequence[str] = ()):
        super().__init__(sim)
        self._rank: Dict[str, int] = {
            master: index for index, master in enumerate(ranking)
        }

    def _rank_of(self, master: str) -> int:
        rank = self._rank.get(master)
        if rank is None:
            # Unranked masters slot in behind every ranked one, in
            # first-request order, and keep that rank forever.
            rank = len(self._rank)
            self._rank[master] = rank
        return rank

    def request(self, master: str, priority: Priority = Priority.NORMAL) -> Event:
        self._rank_of(master)  # register before selection runs
        return super().request(master, priority)

    def _select(self) -> Optional[Tuple[str, Event]]:
        for level in _URGENT:
            queue = self._queues[level]
            if queue:
                return queue.popleft()
        queue = self._queues[Priority.NORMAL]
        if not queue:
            return None
        best_index = min(
            range(len(queue)), key=lambda i: self._rank_of(queue[i][0])
        )
        choice = queue[best_index]
        del queue[best_index]
        return choice


class RoundRobinArbiter(Arbiter):
    """Rotation over masters inside the NORMAL band.

    Masters join the rotation in first-request order.  Selection scans
    the rotation cyclically starting just past the last grantee and
    grants the first master with a queued NORMAL request, so no
    requesting master waits more than one full rotation regardless of
    how quickly others re-request.  A grant that is cancelled at
    validate time (the grant-time upgrade-cancel path) still counts as
    that master's turn: the pointer moves past it, the cancelled tenure
    consumed no bus cycles, and the master rejoins the rotation on its
    next request — fairness over a rotation is preserved either way.

    A master that stops requesting (workload complete, core detached,
    rerouted after a validate-cancel) is pruned from the rotation once
    it has been scanned over without a queued request for a full
    rotation's worth of selections: retired masters must not keep a
    permanent rotation slot, or the "no more than one full rotation"
    wait bound quietly degrades to "one full rotation of everyone who
    *ever* requested" on long runs.  Pruning never changes a selection
    outcome for masters that keep requesting — relative rotation order
    is preserved and a master with a queued request is never pruned —
    and a pruned master that returns simply rejoins at the tail, as a
    fresh master would.

    DRAIN and RETRY stay FIFO (they are correctness-critical
    orderings); fairness only matters for fresh requests.
    """

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        self._rotation: List[str] = []
        self._known: set = set()
        self._last_master: Optional[str] = None
        #: consecutive selections each member sat idle (no queued
        #: NORMAL request); reset on every request or queued sighting
        self._idle_selections: Dict[str, int] = {}

    def request(self, master: str, priority: Priority = Priority.NORMAL) -> Event:
        if master not in self._known:
            self._known.add(master)
            self._rotation.append(master)
        self._idle_selections[master] = 0
        return super().request(master, priority)

    def _select(self) -> Optional[Tuple[str, Event]]:
        for level in _URGENT:
            queue = self._queues[level]
            if queue:
                return queue.popleft()
        queue = self._queues[Priority.NORMAL]
        if not queue:
            return None
        # Oldest queued request per master (a master can only have one
        # NORMAL request outstanding, but the map keeps this robust).
        queued: Dict[str, int] = {}
        for index, (master, _grant) in enumerate(queue):
            queued.setdefault(master, index)
        rotation = self._rotation
        start = 0
        if self._last_master in self._known:
            start = rotation.index(self._last_master) + 1
        for offset in range(len(rotation)):
            master = rotation[(start + offset) % len(rotation)]
            index = queued.get(master)
            if index is not None:
                choice = queue[index]
                del queue[index]
                self._last_master = master
                self._idle_selections[master] = 0
                self._prune_idle(queued)
                return choice
        return None

    def _prune_idle(self, queued: Dict[str, int]) -> None:
        # Runs after each grant: members with a queued request (or the
        # grantee itself) reset their idle count; everyone else accrues
        # one, and past a full rotation's worth of idle selections the
        # member is dropped.  The grantee can never be stale here, so
        # the pointer (_last_master) always survives a prune and the
        # scan origin stays continuous.
        horizon = len(self._rotation)
        stale: List[str] = []
        for master in self._rotation:
            if master in queued or master == self._last_master:
                self._idle_selections[master] = 0
                continue
            count = self._idle_selections.get(master, 0) + 1
            self._idle_selections[master] = count
            if count > horizon:
                stale.append(master)
        for master in stale:
            self._rotation.remove(master)
            self._known.discard(master)
            del self._idle_selections[master]


#: service-discipline registry: config name -> arbiter class.  "fixed"
#: is the historical name for the FCFS default and stays accepted.
ARBITERS: Dict[str, type] = {
    "fcfs": FixedPriorityArbiter,
    "fixed": FixedPriorityArbiter,
    "priority": MasterPriorityArbiter,
    "round-robin": RoundRobinArbiter,
}
