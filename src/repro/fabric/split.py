"""A split-transaction bus: pipelined address and data tenures.

On the atomic ASB a tenure holds the bus from arbitration through the
end of the data phase.  Here the two phases are decoupled:

* The **address bus** carries arbitration + address phase + snoop
  window, under the configured service discipline (the existing
  arbiter classes arbitrate the address phase only).
* The **data bus** is a separate channel on which data tenures retire
  strictly in address order, overlapping later masters' arbitration
  and address phases.
* A bounded **in-flight window** (``max_inflight`` outstanding data
  tenures) back-pressures the address bus: a master that wins
  arbitration when the window is full stalls, still holding the
  address bus, until a data tenure retires — the classic split-bus
  flow-control point.

The tenure is :meth:`~repro.bus.asb.AsbBus.transact`, unchanged but
for where the data occupancy goes: nothing is held before ``commit``
(:meth:`SplitBus._data_before_commit`), and after it the master
reserves a window slot and spawns the background data tenure
(:meth:`SplitBus._data_after_commit`).  So the snoop window, the data
movement and the master's ``commit`` all run at the end of the address
phase with the address bus held, and ``transact`` returns to the master
at that instant (after any window stall) — the master's post-transact
work (writing the store value into the freshly installed line) also
lands before any other master can reach an address phase.  Every
coherence state change therefore stays serialised in address-grant
order, and the protocol tables, wrapper conversions, ARTRY back-off and
validate-cancel paths apply unchanged.  What pipelines is purely
*occupancy*.  The cross-fabric differential suite checks that every
non-timing counter and final line state matches the atomic fabric
exactly; fabric-specific counters use the ``fabric.`` prefix, which
that suite exempts alongside ``bus.busy*``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

from ..bus.asb import AsbBus, TenureState
from ..bus.types import Transaction
from ..sim import Event

__all__ = ["SplitBus"]


class SplitBus(AsbBus):
    """Split-transaction bus: address arbitration decoupled from data."""

    #: default bound on outstanding data tenures
    DEFAULT_MAX_INFLIGHT = 4

    def __init__(self, *args, max_inflight: int = DEFAULT_MAX_INFLIGHT, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_inflight = max_inflight
        #: data tenures past their address phase but not yet retired
        self._outstanding = 0
        self._window_waiters: Deque[Event] = deque()
        #: completion event of the newest queued data tenure (the tail
        #: of the in-order data pipeline), None when the pipe is empty
        self._data_tail: Optional[Event] = None

    # -- in-flight window ---------------------------------------------------
    def _acquire_slot(self) -> Event:
        """One data-tenure slot; fires immediately when under the bound.

        Called with the address bus held.  That cannot deadlock: slots
        are freed by data tenures, which progress on pure timeouts.  In
        the uncontended case the returned event is already triggered,
        so yielding it resumes the caller synchronously — no time
        passes and no other process runs.
        """
        gate = self.sim.event()
        if self._outstanding < self.max_inflight:
            self._outstanding += 1
            gate.succeed()
        else:
            self.stats.bump("fabric.split.window_stalls")
            self._window_waiters.append(gate)
        return gate

    def _release_slot(self) -> None:
        if self._window_waiters:
            # The slot transfers directly to the oldest stalled master.
            self._window_waiters.popleft().succeed()
        else:
            self._outstanding -= 1

    # -- data placement -----------------------------------------------------
    def _data_before_commit(self, state: TenureState, cycles: int):
        """Commit at the end of the address phase: no data hold first."""
        return ()

    def _data_after_commit(self, txn: Transaction, cycles: int) -> Generator:
        """Reserve a window slot, then queue the data tenure in background.

        The slot is reserved before the address bus is released: the
        bounded window's back-pressure point.  While the master stalls
        here the address bus stays held, so no other master can snoop
        the just-committed line before the caller's synchronous
        continuation.
        """
        # The slot's release lives in the spawned data tenure (the
        # ownership transfer below); an exception between grant and
        # spawn would leak it — accepted, since the fault matrix takes
        # the platform down on such errors.
        yield self._acquire_slot()
        predecessor = self._data_tail
        done = self.sim.event()
        self._data_tail = done
        self.sim.process(
            self._data_tenure(txn, cycles, predecessor, done),
            name=f"data-tenure:{txn.master}",
        )

    def _data_tenure(
        self,
        txn: Transaction,
        cycles: int,
        predecessor: Optional[Event],
        done: Event,
    ) -> Generator:
        """Background occupancy of one data tenure (in address order)."""
        state = TenureState(txn.master, txn.op.value, txn.addr, self.sim.now)
        state.phase = "data"
        self._inflight[id(done)] = state
        try:
            if predecessor is not None:
                # In-order data bus: wait for the prior tenure.
                yield predecessor
            sim = self.sim
            data_start = sim.now
            state.since = data_start
            delay = self.clock.cycles(cycles)
            if not sim.advance(delay):
                yield sim.timeout(delay)
            self._charge_busy(txn.master, self.sim.now - data_start)
            self.stats.bump("fabric.split.data_tenures")
        finally:
            del self._inflight[id(done)]
            done.succeed()
            if self._data_tail is done:
                self._data_tail = None
            self._release_slot()
