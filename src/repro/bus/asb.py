"""The shared system bus (AMBA ASB-like).

One bus tenure is::

    arbitration (1 cycle) -> address phase (1 cycle, snooped) -> data phase

At the address phase every attached snooper other than the issuing
master is consulted *combinationally* (a synchronous call), except a
presence-filtered snooper whose cache the bus knows does not hold the
line (see :meth:`AsbBus._snoop_window`).  Outcomes:

* all OK / SHARED / SUPPLY -> the data phase proceeds (cache-to-cache
  supply replaces the memory access when a MOESI owner intervenes);
* any RETRY -> the tenure aborts (ARTRY).  The master backs off until
  every retrying snooper signals completion of its drain, then
  re-arbitrates at RETRY priority.  Drain write-backs themselves run at
  DRAIN priority, modelling the immediate BOFF/ARTRY bus handover the
  paper describes for the PowerPC755/Intel486 platform.

All coherence state changes triggered by a transaction happen while the
bus is held (snoopers commit at the address phase; the master commits
through the ``commit`` callback at the end of the data phase), so state
updates are fully serialised by bus order — the property the coherence
checker relies on.

:meth:`AsbBus.transact` is the only tenure loop: the split and
directory fabrics run it too, overriding only the arbitration domain,
the address-phase length and the placement of the data occupancy.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Generator, List, Optional, Tuple,
)

from ..errors import BusError, LivelockError
from ..sim import Clock, Simulator, Stats, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..mem.controller import MemoryController
from .arbiter import Arbiter, FixedPriorityArbiter
from .types import (
    OP_STAT_KEYS, BusOp, BusResult, Priority, SnoopAction, SnoopReply, Transaction,
    busy_stat_key, master_stat_key, resolve_window,
)

__all__ = ["AsbBus", "Snooper", "TenureState"]


class TenureState:
    """Live view of one in-flight bus transaction, for diagnostics.

    ``phase`` is one of ``arbitrating`` / ``address`` / ``backed-off`` /
    ``data``; ``since`` is when the current phase began; ``waiting_on``
    names the snoopers whose drain completions a backed-off master is
    waiting for.  The watchdog renders these in its diagnostic dump.
    """

    __slots__ = ("master", "op", "addr", "phase", "since", "retries", "waiting_on")

    def __init__(self, master: str, op: str, addr: int, now: int):
        self.master = master
        self.op = op
        self.addr = addr
        self.phase = "arbitrating"
        self.since = now
        self.retries = 0
        self.waiting_on: Tuple[str, ...] = ()

    def describe(self) -> str:
        """One-line rendering for reports."""
        text = (
            f"{self.master} {self.op} @0x{self.addr:08x} "
            f"{self.phase} since t={self.since}"
        )
        if self.retries:
            text += f" retries={self.retries}"
        if self.waiting_on:
            text += " waiting-on=" + ",".join(self.waiting_on)
        return text


class Snooper:
    """Interface for agents that watch the bus address phase.

    ``master_name`` identifies the master whose own transactions this
    snooper must ignore (a cache does not snoop its own fills).

    ``presence_filtered`` declares that a snoop on a line its master's
    cache array does not hold answers OK with no side effect, so the
    bus may skip it.
    """

    # Pure interface: no instance state of its own, and an empty
    # __slots__ keeps subclasses free to choose their own layout
    # without this base smuggling in a __dict__.
    __slots__ = ()

    master_name: str = ""
    presence_filtered: bool = False

    def snoop(self, txn: Transaction) -> SnoopReply:
        """Answer one address phase (called with the bus held)."""
        raise NotImplementedError


# One bus per platform: a __dict__ here is off the per-event path.
class AsbBus:
    """The shared bus: arbitration, snooping, data movement, timing."""

    def __init__(
        self,
        sim: Simulator,
        clock: Clock,
        controller: "MemoryController",
        arbiter: Optional[Arbiter] = None,
        tracer: Optional[Tracer] = None,
        stats: Optional[Stats] = None,
        max_retries: Optional[int] = 1000,
    ):
        self.sim = sim
        self.clock = clock
        self.controller = controller
        self.arbiter = arbiter or FixedPriorityArbiter(sim)
        self.tracer = tracer or Tracer(channels=())
        self.stats = stats or Stats()
        # Cached guard: one attribute load per tenure when "bus" is off.
        self._trace_bus = self.tracer.channel("bus")
        #: bus cycles of arbitration and of the address phase; a fabric
        #: may lengthen the address phase (the directory's lookup)
        self.arbitration_cycles = 1
        self.address_cycles = 1
        #: ARTRY ceiling per transaction; None disables the monitor.
        self.max_retries = max_retries
        self.snoopers: List[Snooper] = []
        #: completed tenures (plain attribute: golden stats stay intact)
        self.completions = 0
        self._inflight: dict = {}
        #: consecutive grant-time validate-cancellations per master.
        #: Tracked separately from per-transaction ARTRY counts: a
        #: cancellation storm (the premise keeps vanishing before the
        #: address phase) and an ARTRY livelock are different failures
        #: and must never be conflated in a LivelockError.
        self._cancel_streaks: Dict[str, int] = {}
        #: line base -> bitmask of registered masters holding it valid
        self._presence: Dict[int, int] = {}
        #: registered master name -> its presence bit
        self._master_bits: Dict[str, int] = {}
        #: clears the offset within a line (all ones until a master
        #: registers its cache geometry)
        self._line_mask = -1

    @classmethod
    def build(cls, sim, clock, controller, *, arbiter_factory, **kwargs):
        """One bus for one platform, the construction path of every fabric.

        ``arbiter_factory`` builds one arbiter of the configured service
        discipline per call; a fabric with several arbitration domains
        (the directory's home banks) calls it more than once.
        """
        return cls(sim, clock, controller, arbiter=arbiter_factory(), **kwargs)

    def inflight_tenures(self) -> List[TenureState]:
        """Live :class:`TenureState` for every in-flight transaction."""
        return list(self._inflight.values())

    # -- topology -----------------------------------------------------------
    def attach_snooper(self, snooper: Snooper) -> None:
        """Register a snooper for the address phase."""
        self.snoopers.append(snooper)

    def detach_snooper(self, snooper: Snooper) -> None:
        """Remove a previously attached snooper.

        Safe during an in-flight tenure: the snoop window iterates a
        snapshot taken at window start, so a detach triggered from
        inside a snoop callback (fault-proxy teardown does this) never
        mutates the sequence being walked.
        """
        self.snoopers.remove(snooper)

    def register_master(self, master: str, controller) -> None:
        """Mirror ``controller``'s line occupancy into the presence map.

        Called once per master at build time.  Installs fire inside the
        bus-held commit; removals fire inside snoop windows, evictions
        and flushes — all serialised per line by the arbitration
        domain, so the map is never stale when a window consults it.
        """
        # One system-wide line size (PlatformConfig validates it).
        self._line_mask = ~(controller.geom.line_bytes - 1)
        bit = 1 << len(self._master_bits)
        self._master_bits[master] = bit
        presence = self._presence

        def install(base: int) -> None:
            presence[base] = presence.get(base, 0) | bit

        def remove(base: int) -> None:
            holders = presence.get(base, 0) & ~bit
            if holders:
                presence[base] = holders
            else:
                presence.pop(base, None)

        controller.install_listeners.append(install)
        controller.remove_listeners.append(remove)

    def holders(self, base: int) -> FrozenSet[str]:
        """Names of the registered masters holding line ``base`` valid."""
        mask = self._presence.get(base, 0)
        return frozenset(name for name, bit in self._master_bits.items() if mask & bit)

    # -- the tenure ----------------------------------------------------------
    def transact(
        self,
        txn: Transaction,
        priority: Priority = Priority.NORMAL,
        commit: Optional[Callable[[BusResult], None]] = None,
        validate: Optional[Callable[[], bool]] = None,
    ) -> Generator:
        """Run one transaction to completion (a process generator).

        ``commit``, when given, runs at the end of the data phase while
        the bus is still held — masters use it to install fills and flip
        line states atomically with respect to other masters' snoops.

        ``validate``, when given, is consulted at every bus grant before
        the address phase.  If it returns false the tenure is cancelled
        and ``transact`` returns ``None`` without any snooper having
        seen the operation.  Masters use this for address-only upgrades
        whose premise (we still hold the line) can be snooped away while
        the request sits in arbitration: real buses convert the lost
        upgrade to a full read-with-intent-to-modify before it reaches
        the wire, and broadcasting it anyway would invalidate the
        race winner's freshly-dirtied line without a write-back.

        This is the one tenure loop of every fabric.  A fabric changes
        only its arbitration domain (:meth:`_arbiter_for`), the length
        of its address phase (``address_cycles``) and where the data
        occupancy goes (:meth:`_data_before_commit` /
        :meth:`_data_after_commit`).

        Use as ``result = yield from bus.transact(txn)``.
        """
        sim = self.sim
        start = sim.now
        self.stats.bump("bus.txns")
        self.stats.bump(OP_STAT_KEYS[txn.op])
        self.stats.bump(master_stat_key(txn.master))
        state = TenureState(txn.master, txn.op.value, txn.addr, start)
        self._inflight[id(txn)] = state
        arbiter = self._arbiter_for(txn.addr)
        held = False
        try:
            while True:
                yield arbiter.request(txn.master, priority)
                held = True
                if validate is not None and not validate():
                    # The premise vanished while we waited for the grant
                    # (e.g. an upgrade whose line a competing RWITM just
                    # snatched): drop the tenure before the address
                    # phase so no snooper ever sees the stale op.
                    arbiter.release(txn.master)
                    held = False
                    self._record_cancellation(txn)
                    return None
                tenure_start = sim.now
                state.phase = "address"
                state.since = tenure_start
                # Arbitration + address phase, aligned to the bus clock.
                # Snoop pushes skip arbitration: after ARTRY the arbiter
                # hands the bus to the snooper directly (the BOFF/ARTRY
                # handover of Section 3).
                arb_cycles = 0 if priority is Priority.DRAIN else self.arbitration_cycles
                delay = self.clock.edge_then_cycles(
                    sim.now, arb_cycles + self.address_cycles
                )
                if not sim.advance(delay):
                    yield sim.timeout(delay)
                trace = self._trace_bus
                if trace.enabled:
                    trace.emit(
                        sim.now, txn.master, "address-phase",
                        op=txn.op.value, addr=txn.addr, retry_no=txn.retries,
                    )
                retriers, shared, supplier = resolve_window(self._snoop_window(txn))
                if retriers:
                    # ARTRY: abort the tenure, back off until drains finish.
                    self._abort_tenure(txn, tenure_start)
                    arbiter.release(txn.master)
                    held = False
                    yield from self._await_drains(txn, state, retriers)
                    priority = Priority.RETRY
                    continue
                data, cycles = self._data_phase(txn, supplier)
                yield from self._data_before_commit(state, cycles)
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
                yield from self._data_after_commit(txn, cycles)
                self._charge_busy(txn.master, sim.now - tenure_start)
                arbiter.release(txn.master)
                held = False
                self._note_completion(txn)
                return result
        finally:
            del self._inflight[id(txn)]
            if held:
                # A fault mid-tenure (snooper exception, data-phase
                # error) must not wedge the bus for every other master.
                arbiter.release(txn.master)

    # -- what a fabric overrides ------------------------------------------------
    def _arbiter_for(self, addr: int) -> Arbiter:
        """The arbitration domain of a tenure on ``addr``: the one bus."""
        return self.arbiter

    def _data_before_commit(self, state: TenureState, cycles: int):
        """Data placement before ``commit``: hold the bus for the data phase.

        The tenure runs the result with ``yield from``, so an override
        that waits for nothing returns ``()``.
        """
        sim = self.sim
        state.phase = "data"
        state.since = sim.now
        delay = self.clock.cycles(cycles)
        if not sim.advance(delay):
            yield sim.timeout(delay)

    def _data_after_commit(self, txn: Transaction, cycles: int):
        """Data placement after ``commit``: nothing left on an atomic tenure."""
        return ()

    # -- internals -------------------------------------------------------------
    def _record_cancellation(self, txn: Transaction) -> None:
        """Stats/trace bookkeeping for one grant-time validate-cancel.

        Cancellations are counted per master as a *consecutive streak*
        (cleared by any completed tenure) and checked against the same
        ``max_retries`` ceiling as ARTRYs — but through a separate
        counter, so a cancellation storm raises a
        :class:`~repro.errors.LivelockError` naming the cancel path,
        never a spurious "ARTRY'd N times" report (``bus.cancelled``
        and ``bus.retries`` would contradict such a message).
        """
        self.stats.bump("bus.cancelled")
        streak = self._cancel_streaks.get(txn.master, 0) + 1
        self._cancel_streaks[txn.master] = streak
        trace = self._trace_bus
        if trace.enabled:
            trace.emit(
                self.sim.now, txn.master, "cancelled",
                op=txn.op.value, addr=txn.addr,
            )
        if self.max_retries is not None and streak > self.max_retries:
            raise LivelockError(
                f"{txn.master} {txn.op.value} @0x{txn.addr:08x} "
                f"validate-cancelled at grant {streak} consecutive times "
                f"without completing a tenure (ceiling {self.max_retries}; "
                f"this transaction's ARTRY count: {txn.retries}): "
                "cancellation storm — the tenure premise keeps vanishing "
                "before the address phase; this is not an ARTRY retry loop",
                master=txn.master,
                address=txn.addr,
                retries=txn.retries,
            )

    def _abort_tenure(self, txn: Transaction, tenure_start: int) -> None:
        """ARTRY with the bus still held: count it, charge the wasted tenure.

        The wasted address phase is the whole cost: the bus is handed
        on with no extra recovery cycles.
        """
        now = self.sim.now
        self.stats.bump("bus.retries")
        if self._trace_bus.enabled:
            self._trace_bus.emit(now, txn.master, "artry", addr=txn.addr)
        self._charge_busy(txn.master, now - tenure_start)

    def _charge_busy(self, master: str, ticks: int) -> None:
        """Charge ``ticks`` of bus occupancy to ``master``."""
        self.stats.bump("bus.busy_ticks", ticks)
        self.stats.bump(busy_stat_key(master), ticks)

    def _await_drains(self, txn: Transaction, state: TenureState, retriers) -> Generator:
        """Back off, bus released, until every retrying snooper has drained."""
        txn.retries += 1
        state.retries = txn.retries
        self._check_retry_ceiling(txn)
        state.phase = "backed-off"
        state.since = self.sim.now
        state.waiting_on = tuple(name for name, _ in retriers)
        yield self.sim.all_of([reply.completion for _, reply in retriers])
        state.waiting_on = ()
        state.phase = "arbitrating"
        state.since = self.sim.now

    def _check_retry_ceiling(self, txn: Transaction) -> None:
        """Raise once a transaction's ARTRY count tops the ceiling."""
        if self.max_retries is not None and txn.retries > self.max_retries:
            cancels = self._cancel_streaks.get(txn.master, 0)
            raise LivelockError(
                f"{txn.master} {txn.op.value} @0x{txn.addr:08x} "
                f"ARTRY'd {txn.retries} times "
                f"(ceiling {self.max_retries}; consecutive grant-time "
                f"validate-cancellations for {txn.master}: {cancels}): "
                "livelocked retry loop",
                master=txn.master,
                address=txn.addr,
                retries=txn.retries,
            )

    def _note_completion(self, txn: Transaction) -> None:
        """A tenure completed: count it and clear the cancel streak."""
        self.completions += 1
        if self._cancel_streaks:
            self._cancel_streaks.pop(txn.master, None)

    def _snoop_window(self, txn: Transaction) -> List[Tuple[str, SnoopReply]]:
        """Snoop every other master that may hold the line.

        Returns the window's ``(responder, reply)`` pairs in snoop order,
        for :func:`~repro.bus.types.resolve_window`.

        A presence-filtered snooper is skipped when its master is
        registered and does not hold the line: it would answer OK with no
        side effect.
        Snoop logic (its TAG CAM can hold tags the array does not) and
        fault proxies (they count every snoop occasion) are never
        filtered.  The holders are read once, before any snoop
        invalidates a copy.
        """
        replies: List[Tuple[str, SnoopReply]] = []
        trace = self._trace_bus
        master = txn.master
        holders = self._presence.get(txn.addr & self._line_mask, 0)
        bits = self._master_bits
        # Snapshot: a snoop callback may detach a snooper (fault-proxy
        # teardown) and must not mutate the sequence being iterated.
        for snooper in tuple(self.snoopers):
            name = snooper.master_name
            if name == master:
                continue
            if snooper.presence_filtered:
                bit = bits.get(name)
                if bit is not None and not holders & bit:
                    continue
            reply = snooper.snoop(txn)
            if reply.action is not SnoopAction.OK and trace.enabled:
                trace.emit(
                    self.sim.now, name, "snoop",
                    op=txn.op.value, addr=txn.addr, action=reply.action.value,
                )
            replies.append((name, reply))
        return replies

    def _data_phase(self, txn: Transaction, supplier: Optional[Tuple[str, SnoopReply]]):
        if supplier is not None:
            if txn.op not in (BusOp.READ_LINE, BusOp.READ_LINE_EXCL):
                raise BusError(f"cache-to-cache supply for non-fill {txn.op}")
            self.stats.bump("bus.c2c_supplies")
            data = list(supplier[1].supply_data)
            return data, self.controller.supply_cycles(txn.line_words)
        return self.controller.access(txn)
