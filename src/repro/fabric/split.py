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

Coherence semantics are *identical* to the atomic bus by construction:
the snoop window, the data movement and the master's ``commit``
callback all execute at the end of the address phase while the address
bus is held, and ``transact`` returns to the master *synchronously* at
that same instant — so the master's post-transact work (writing the
store value into the freshly installed line) also lands before any
other master can reach an address phase.  Every coherence state change
therefore remains serialised in address-grant order and the shipped
protocol tables, wrapper conversions, ARTRY back-off and
validate-cancel paths apply unchanged.  What pipelines is purely
*occupancy*: each data tenure runs as a background process chained in
address order.  The cross-fabric differential suite checks that every
non-timing counter and final line state matches the atomic fabric
exactly; fabric-specific counters use the ``fabric.`` prefix, which
that suite exempts alongside ``bus.busy*``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Optional

from ..bus.asb import TenureState
from ..bus.types import BusResult, Priority, Transaction, resolve_window
from ..sim import Event
from .atomic import AtomicFabric
from .registry import register_fabric

__all__ = ["SplitBus"]


@register_fabric
class SplitBus(AtomicFabric):
    """Split-transaction bus: address arbitration decoupled from data."""

    name = "split"
    version = 1

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

    @classmethod
    def fingerprint(cls) -> Dict[str, object]:
        return {
            "name": cls.name,
            "version": cls.version,
            "max_inflight": cls.DEFAULT_MAX_INFLIGHT,
        }

    def snapshot(self) -> dict:
        base = super().snapshot()
        base["outstanding_data_tenures"] = self._outstanding
        base["window_waiters"] = len(self._window_waiters)
        return base

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

    # -- the tenure ---------------------------------------------------------
    def transact(
        self,
        txn: Transaction,
        priority: Priority = Priority.NORMAL,
        commit=None,
        validate=None,
    ) -> Generator:
        """Run one address tenure; the data tenure retires in background.

        Returns at the end of the address phase (synchronously — see
        the module docstring for why that is load-bearing for
        coherence), with the data occupancy spawned as a chained
        background process.
        """
        sim = self.sim
        start = sim.now
        self.stats.bump("bus.txns")
        self.stats.bump(f"bus.op.{txn.op.value}")
        self.stats.bump(f"bus.master.{txn.master}")
        state = TenureState(txn.master, txn.op.value, txn.addr, start)
        self._inflight[id(txn)] = state
        held = False
        try:
            while True:
                yield self.arbiter.request(txn.master, priority)
                held = True
                if validate is not None and not validate():
                    self.arbiter.release(txn.master)
                    held = False
                    self._record_cancellation(txn)
                    return None
                tenure_start = sim.now
                state.phase = "address"
                state.since = tenure_start
                arb_cycles = 0 if priority is Priority.DRAIN else self.arbitration_cycles
                yield sim.timeout(
                    self.clock.edge_then_cycles(sim.now, arb_cycles + self.address_cycles)
                )
                trace = self._trace_bus
                if trace.enabled:
                    trace.emit(
                        sim.now, txn.master, "address-phase",
                        op=txn.op.value, addr=txn.addr, retry_no=txn.retries,
                    )
                retriers, shared, supplier = resolve_window(self._snoop_window(txn))
                if retriers:
                    # ARTRY semantics as on the atomic bus: the address
                    # tenure aborts; no data slot was consumed.
                    yield from self._abort_tenure(txn, tenure_start)
                    self.arbiter.release(txn.master)
                    held = False
                    yield from self._await_drains(txn, state, retriers)
                    priority = Priority.RETRY
                    continue
                # Coherence commit point: data movement and the
                # master's state flip happen *now*, at the end of the
                # address phase with the address bus held — identical
                # serialisation to the atomic bus.  Only the data
                # tenure's occupancy is deferred.
                data, cycles = self._data_phase(txn, supplier)
                result = BusResult(
                    data=data,
                    shared=shared,
                    retries=txn.retries,
                    start_time=start,
                    end_time=sim.now,
                    supplied=supplier is not None,
                )
                if commit is not None:
                    commit(result)
                if trace.enabled:
                    trace.emit(
                        sim.now, txn.master, "complete",
                        op=txn.op.value, addr=txn.addr, shared=shared,
                        supplied=result.supplied, retries=txn.retries,
                    )
                # Reserve a data-tenure slot before releasing the
                # address bus: the bounded window's back-pressure
                # point.  While we stall here the address bus stays
                # held, so no other master can snoop the just-committed
                # line before our caller's synchronous continuation.
                # The slot's release lives in the spawned data tenure
                # (the ownership transfer below); an exception between
                # grant and spawn would leak it — accepted, since the
                # fault matrix takes the platform down on such errors.
                # repro: lint-ok[resource-release]
                yield self._acquire_slot()
                address_span = sim.now - tenure_start
                self.stats.bump("bus.busy_ticks", address_span)
                self.stats.bump(f"bus.busy.{txn.master}", address_span)
                predecessor = self._data_tail
                done = sim.event()
                self._data_tail = done
                sim.process(
                    self._data_tenure(txn, cycles, predecessor, done),
                    name=f"data-tenure:{txn.master}",
                )
                self.arbiter.release(txn.master)
                held = False
                self._note_completion(txn)
                return result
        finally:
            del self._inflight[id(txn)]
            if held:
                self.arbiter.release(txn.master)

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
            data_start = self.sim.now
            state.since = data_start
            yield self.sim.timeout(self.clock.cycles(cycles))
            span = self.sim.now - data_start
            self.stats.bump("bus.busy_ticks", span)
            self.stats.bump(f"bus.busy.{txn.master}", span)
            self.stats.bump("fabric.split.data_tenures")
        finally:
            del self._inflight[id(done)]
            done.succeed()
            if self._data_tail is done:
                self._data_tail = None
            self._release_slot()
