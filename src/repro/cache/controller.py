"""The snooping cache controller.

Glue between a processor core, a :class:`~repro.cache.array.CacheArray`,
a coherence-protocol FSM and the shared bus:

* **processor side** — ``read`` / ``write`` / ``swap`` plus the cache
  management operations software coherence needs (``flush_line`` ==
  DCBF-style drain, ``invalidate_line`` == DCBI, ``writeback_line`` ==
  DCBST);
* **snoop side** — :meth:`snoop_decision` runs a snooped operation
  through the line's coherence step (:func:`~repro.core.coherence.snoop_step`)
  and either commits the transition immediately (the bus is held, so this
  is race-free) or reports that a drain is required, which the wrapper
  then schedules;
* **drain side** — :meth:`drain_line` performs the snoop push at DRAIN
  bus priority.

Every exit of a dirty line (DCBST, the snoop push, eviction, DCBF)
reaches the bus through :meth:`_write_back`, the one place that builds
a line's ``WRITE_LINE`` tenure.

A single FIFO :class:`~repro.sim.Mutex` (the *port lock*) serialises
processor-side operations and drains.  This models the single tag/data
port of the real controllers and — deliberately — reproduces the
paper's Fig 4 hardware deadlock: a drain cannot proceed while the
processor's own transaction is mid-flight (including backed off after
ARTRY), which is exactly the "retries instead of draining" behaviour
described in Section 3.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Tuple

from ..bus.asb import AsbBus
from ..bus.types import BusOp, Priority, SnoopAction, Transaction
from ..core.coherence import MISS, CoherenceStep, Outcome, WriteMiss, snoop_step, step_for
from ..core.reduction import WrapperPolicy
from ..errors import ProtocolError
from ..mem.map import MemoryMap, WritePolicy
from ..sim import Mutex, Simulator, Stats, Tracer
from .array import CacheArray, CacheGeometry
from .line import CacheLine, State
from .protocols.base import CoherenceProtocol, WriteAction

__all__ = ["CacheController"]

#: a write hit that needs no bus, the states a write-back must push and
#: the absent state; bound once, as an enum member read through its
#: class (or a CacheLine property) is slow on the per-access path.  A
#: tuple probe matches by identity, with no Python-level Enum.__hash__.
_SILENT = WriteAction.NONE
_DIRTY = tuple(state for state in State if state.is_dirty)
_INVALID = State.INVALID


class CacheController:
    """One processor's data cache plus its coherence machinery."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        bus: AsbBus,
        memory_map: MemoryMap,
        geometry: CacheGeometry,
        protocol: Optional[CoherenceProtocol],
        protocol_wt: Optional[CoherenceProtocol] = None,
        tracer: Optional[Tracer] = None,
        stats: Optional[Stats] = None,
        enabled: bool = True,
        coherent: bool = True,
        drain_needs_port: bool = True,
    ):
        self.name = name
        self.sim = sim
        self.bus = bus
        self.map = memory_map
        self.geom = geometry
        self.array = CacheArray(geometry)
        self.protocol = protocol
        self.protocol_wt = protocol_wt
        self.tracer = tracer or bus.tracer
        self.stats = stats or bus.stats
        # Cached channel guards: disabled-channel emits cost only an
        # attribute load on the hot processor-access path.
        self._trace_mem = self.tracer.channel("mem")
        self._trace_cache = self.tracer.channel("cache")
        # Stat keys, interned once instead of one f-string per bump.
        self._stat_hits = f"{name}.hits"
        self._stat_read_misses = f"{name}.read_misses"
        self._stat_write_misses = f"{name}.write_misses"
        self._stat_fills = f"{name}.fills"
        self._stat_uncached_reads = f"{name}.uncached_reads"
        self._stat_uncached_writes = f"{name}.uncached_writes"
        self._stat_write_throughs = f"{name}.write_throughs"
        self._stat_upgrades = f"{name}.upgrades"
        self._stat_upgrade_races = f"{name}.upgrade_races"
        self._stat_updates = f"{name}.updates"
        self._stat_writebacks = f"{name}.writebacks"
        self._stat_evictions = f"{name}.evictions"
        self._stat_flushes = f"{name}.flushes"
        self._stat_drains = f"{name}.drains"
        self._stat_drain_redirties = f"{name}.drain_redirties"
        self.enabled = enabled
        #: whether this cache participates in bus snooping (False models
        #: the ARM920T: a write-back cache with no coherence hardware)
        self.coherent = coherent
        self.policy = WrapperPolicy()
        #: listeners for TAG CAM mirroring: f(line_base_addr)
        self.install_listeners: List[Callable[[int], None]] = []
        self.remove_listeners: List[Callable[[int], None]] = []
        self.port = Mutex(sim, name=f"{name}.port")
        #: True models the paper's controllers, where a snoop push
        #: queues behind the processor's own (possibly backed-off)
        #: transaction on the single tag/data port — the Fig 4
        #: ingredient.  False models a dedicated snoop machine that
        #: pushes in the post-ARTRY window of opportunity regardless of
        #: the port holder (how N-master shared-bus parts avoid the
        #: cross-drain deadlock).
        self.drain_needs_port = drain_needs_port

    @property
    def policy(self) -> WrapperPolicy:
        """The wrapper policy snoops and fills run under (identity without one)."""
        return self._policy

    @policy.setter
    def policy(self, policy: WrapperPolicy) -> None:
        # Each line protocol's step under the new policy, built on demand.
        self._policy, self._steps = policy, {}

    def _step(self, protocol: CoherenceProtocol) -> CoherenceStep:
        """``protocol``'s coherence step under this controller's policy."""
        step = self._steps.get(protocol)
        if step is None:
            step = self._steps[protocol] = step_for(protocol, self._policy)
        return step

    # ------------------------------------------------------------------
    # processor side
    # ------------------------------------------------------------------
    def read(self, addr: int) -> Generator:
        """Load one word (generator; yields until the value is ready).

        Uncached accesses bypass the cache array (and therefore the
        port lock): the bus interface handles them while the tag/data
        port stays available to snoop pushes.
        """
        region = self.map.find(addr)
        if not (self.enabled and region.cacheable):
            value = yield from self._uncached_read(addr, region)
        else:
            port = self.port
            yield port.acquire()
            try:
                # A hit is served right here; only a miss runs a
                # sub-generator (the fill).
                line = self.array.lookup(addr, touch=True)
                if line is not None:
                    self.stats.bump(self._stat_hits)
                else:
                    self.stats.bump(self._stat_read_misses)
                    # The paper's retry-first semantics (Section 3): the
                    # processor transaction legitimately keeps the
                    # tag/data port across its bus tenure, and a
                    # concurrent snoop push ARTRYs and backs off.  The
                    # drain-policy bypass keeps the port/drain waits
                    # acyclic (tests/integration/test_scaleout.py::
                    # TestDrainPolicy runs both policies).
                    line = yield from self._fill(addr, region, exclusive=False)
                value = line.data[self.geom.word_offset(addr)]
            finally:
                port.release()
        trace = self._trace_mem
        if trace.enabled:
            trace.emit(self.sim.now, self.name, "load", addr=addr, value=value)
        return value

    def write(self, addr: int, value: int) -> Generator:
        """Store one word (generator); uncached stores skip the port."""
        region = self.map.find(addr)
        if not (self.enabled and region.cacheable):
            device = self._local_device(region)
            if device is not None:
                device.write_word(addr, value)
            else:
                yield from self.bus.transact(
                    Transaction(BusOp.WRITE, addr, self.name, data=value)
                )
                self.stats.bump(self._stat_uncached_writes)
        else:
            port = self.port
            yield port.acquire()
            try:
                # A silent write hit completes here, as a read hit does.
                line = self.array.lookup(addr, touch=True)
                if line is None:
                    # Retry-first port hold, as in read above.
                    yield from self._write_miss(addr, value, region)
                else:
                    offset = self.geom.word_offset(addr)
                    new_state, action = self._write_hit(addr, line, offset, value)
                    if action is not _SILENT:
                        # Retry-first port hold, as in read above.
                        yield from self._write_hit_bus(
                            addr, line, offset, value, new_state, action
                        )
            finally:
                port.release()
        trace = self._trace_mem
        if trace.enabled:
            trace.emit(self.sim.now, self.name, "store", addr=addr, value=value)

    def swap(self, addr: int, value: int) -> Generator:
        """Atomic exchange on an *uncached* word (the lock primitive)."""
        region = self.map.find(addr)
        if self.enabled and region.cacheable:
            raise ProtocolError(
                f"swap at 0x{addr:08x}: atomic exchange is only defined for "
                "uncached addresses (lock variables are never cached)"
            )
        result = yield from self.bus.transact(
            Transaction(BusOp.SWAP, addr, self.name, data=value)
        )
        trace = self._trace_mem
        if trace.enabled:
            trace.emit(self.sim.now, self.name, "swap", addr=addr, value=value, old=result.data)
        return result.data

    def flush_line(self, addr: int, priority: Priority = Priority.NORMAL) -> Generator:
        """DCBF: write back if dirty, then invalidate (software coherence)."""
        yield self.port.acquire()
        try:
            # Retry-first port hold, as in read above.
            yield from self._flush_locked(addr, priority)
        finally:
            self.port.release()

    def writeback_line(self, addr: int) -> Generator:
        """DCBST: push a dirty line to memory but keep it (clean)."""
        yield self.port.acquire()
        try:
            line = self.array.lookup(addr)
            if line is not None and line.state in _DIRTY:
                base = self.geom.line_base(addr)
                # Retry-first port hold, as in read above.
                yield from self._write_back(
                    base, line,
                    lambda: self._set_state(base, line, State.EXCLUSIVE, "dcbst"),
                )
                self.stats.bump(self._stat_writebacks)
        finally:
            self.port.release()

    def invalidate_line(self, addr: int) -> None:
        """DCBI: drop the line without writing it back (instant)."""
        base = self.geom.line_base(addr)
        if self.array.remove(base) is not None:
            self._notify_remove(base, "dcbi")

    def line_state(self, addr: int) -> State:
        """Current coherence state of the line holding ``addr``."""
        line = self.array.lookup(self.geom.line_base(addr))
        return line.state if line is not None else State.INVALID

    def cached_addresses(self, predicate=None) -> List[int]:
        """Valid line base addresses (optionally filtered by predicate)."""
        return self.array.flush_iter(predicate)

    # ------------------------------------------------------------------
    # snoop side (called with the bus held; synchronous)
    # ------------------------------------------------------------------
    def snoop_decision(self, txn: Transaction) -> Tuple[Outcome, Optional[List[int]]]:
        """Evaluate and (unless a drain is needed) commit a snooped op.

        Returns ``(outcome, supply_data)``: the line's coherence-step
        :class:`~repro.core.coherence.Outcome` under this controller's
        policy (``MISS`` when the line is absent) and, on SUPPLY, the
        line's data as sourced.
        """
        base = self.geom.line_base(txn.addr)
        line = self.array.lookup(base)
        if line is None:
            return MISS, None
        # On RETRY the commit waits for drain_line(); the master sees ARTRY.
        view = ((base, line), self._step(line.protocol), line.state, line.data, self.name)
        outcome = snoop_step(view, txn.op, txn.addr, txn.data, self._commit_snoop)
        data = list(line.data) if outcome.action is SnoopAction.SUPPLY else None
        return outcome, data

    # ------------------------------------------------------------------
    # drain side (scheduled by the wrapper or the snoop-logic ISR)
    # ------------------------------------------------------------------
    def drain_line(self, addr: int, next_state: State) -> Generator:
        """Snoop push: write the dirty line back, then enter next_state.

        Runs at DRAIN bus priority (the ARTRY/BOFF handover).  Tolerates
        the line having been cleaned, replaced or invalidated since the
        snoop — the push then degenerates to the bare state change.

        With ``drain_needs_port`` (the default) the push waits for the
        tag/data port, which the processor's own in-flight transaction
        may hold; with it off, the push proceeds immediately — the
        dedicated-snoop-machine behaviour (safe because snoop-side state
        commits never took the port either, and the port holder is
        parked waiting on the bus the drain is about to use).
        """
        base = self.geom.line_base(addr)
        if not self.drain_needs_port:
            yield from self._drain_push(base, next_state)
            return
        yield self.port.acquire()
        try:
            # Retry-first drain: the push queues behind the port on
            # purpose; the bypass branch above is what keeps the
            # port/drain-completion waits-for graph acyclic.
            yield from self._drain_push(base, next_state)
        finally:
            self.port.release()

    def _drain_push(self, base: int, next_state: State) -> Generator:
        line = self.array.lookup(base)
        if line is None:
            return
        if line.state not in _DIRTY:
            self._apply_snoop_state(base, line, next_state)
            return

        # With the port-free ("window") policy the processor can store
        # into this line while the push is on the bus — the write-back
        # then carries stale content.  Snapshot what we intend to drain;
        # the commit refuses to clean a line that changed under it, so
        # the requester's next snoop sees a dirty hit and forces another
        # push with the fresh content.  (With drain_needs_port the port
        # serialises processor stores against the push and the snapshot
        # always matches.)
        snapshot = tuple(line.data)

        def settle():
            if tuple(line.data) != snapshot:
                self.stats.bump(self._stat_drain_redirties)
            else:
                self._apply_snoop_state(base, line, next_state)

        yield from self._write_back(base, line, settle, Priority.DRAIN)
        self.stats.bump(self._stat_drains)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _uncached_read(self, addr: int, region) -> Generator:
        device = self._local_device(region)
        if device is not None:
            # Tightly-coupled register (coprocessor-style): no bus tenure.
            return device.read_word(addr)
        result = yield from self.bus.transact(Transaction(BusOp.READ, addr, self.name))
        self.stats.bump(self._stat_uncached_reads)
        return result.data

    def _local_device(self, region):
        """``region``'s device when it is this master's tightly-coupled one."""
        device = region.device
        if device is not None and getattr(device, "local_master", None) == self.name:
            return device
        return None

    def _write_miss(self, addr: int, value: int, region) -> Generator:
        """A write miss (the caller looked the line up and found none)."""
        offset = self.geom.word_offset(addr)
        self.stats.bump(self._stat_write_misses)
        kind = self._step(self._protocol_for(region)).write_miss
        if kind is WriteMiss.NO_ALLOCATE:
            yield from self.bus.transact(Transaction(BusOp.WRITE, addr, self.name, data=value))
            self.stats.bump(self._stat_write_throughs)
            return
        if kind is WriteMiss.FILL_SHARED:
            # The write broadcasts when sharers exist.
            line = yield from self._fill(addr, region, exclusive=False)
            new_state, action = self._write_hit(addr, line, offset, value)
            if action is not _SILENT:
                yield from self._write_hit_bus(addr, line, offset, value, new_state, action)
            return
        line = yield from self._fill(addr, region, exclusive=True)
        line.data[offset] = value
        line.state = State.MODIFIED  # defensive; RWITM fills M

    def _write_hit(
        self, addr: int, line: CacheLine, offset: int, value: int
    ) -> Tuple[State, WriteAction]:
        """Count a write hit and look up what it costs in its step's table.

        A silent hit (``WriteAction.NONE``) stores the word here; any
        other action is owed to :meth:`_write_hit_bus`.
        """
        self.stats.bump(self._stat_hits)
        new_state, action = self._step(line.protocol).write_hit_for(line.state)
        if action is _SILENT:
            if line.state is not new_state:
                self._set_state(self.geom.line_base(addr), line, new_state, "write-hit")
            line.data[offset] = value
        return new_state, action

    def _write_hit_bus(
        self, addr: int, line: CacheLine, offset: int, value: int,
        new_state: State, action: WriteAction,
    ) -> Generator:
        """The bus work a non-silent write hit owes."""
        if action is WriteAction.WRITE_THROUGH:
            line.data[offset] = value
            yield from self.bus.transact(Transaction(BusOp.WRITE, addr, self.name, data=value))
            self.stats.bump(self._stat_write_throughs)
            return
        if action is WriteAction.UPDATE:
            # Dragon-style broadcast: patch sharers, then settle between
            # Sm (sharers remain) and M (nobody listened).
            yield from self._broadcast_update(addr, line, offset, value)
            return
        # UPGRADE: address-only invalidate; commit while the bus is held.
        base = self.geom.line_base(addr)
        upgraded = []

        def commit(_result):
            if line.state is not _INVALID:
                self._set_state(base, line, new_state, "upgrade")
                line.data[offset] = value
                upgraded.append(True)

        yield from self.bus.transact(
            Transaction(BusOp.INVALIDATE, base, self.name),
            commit=commit,
            # A competing invalidate can snatch our line while this
            # request sits in arbitration; broadcasting the upgrade
            # anyway would kill the race winner's dirty line without a
            # write-back (lost data).  Cancel at grant time instead —
            # the hardware's lost-upgrade-to-RWITM conversion.
            validate=lambda: line.state is not _INVALID,
        )
        self.stats.bump(self._stat_upgrades)
        if not upgraded:
            # The line was snatched (invalidated by a competing RWITM)
            # between our decision and our bus grant: redo as a miss.
            self.stats.bump(self._stat_upgrade_races)
            region = self.map.find(addr)
            line = yield from self._fill(addr, region, exclusive=True)
            line.data[offset] = value

    def _broadcast_update(self, addr: int, line: CacheLine, offset: int, value: int) -> Generator:
        base = self.geom.line_base(addr)
        done = []

        def commit(result):
            if line.state is not _INVALID:
                line.data[offset] = value
                final = State.OWNED if result.shared else State.MODIFIED
                if line.state is not final:
                    self._set_state(base, line, final, "update")
                done.append(True)

        yield from self.bus.transact(
            Transaction(BusOp.UPDATE, addr, self.name, data=value), commit=commit
        )
        self.stats.bump(self._stat_updates)
        if not done:
            # The line vanished (snooped away) mid-broadcast, and only
            # a fill under this held port could bring it back: redo as
            # a plain miss-and-write.
            region = self.map.find(addr)
            yield from self._write_miss(addr, value, region)

    def _fill(self, addr: int, region, exclusive: bool) -> Generator:
        """Fetch the line for ``addr``; returns the installed CacheLine."""
        protocol = self._protocol_for(region)
        base = self.geom.line_base(addr)
        way, victim, victim_addr = self.array.victim_for(base)
        if victim is not None:
            yield from self._evict(victim, victim_addr, way)
        op = BusOp.READ_LINE_EXCL if exclusive else BusOp.READ_LINE
        installed: List[CacheLine] = []

        def commit(result):
            step = self._step(protocol)
            state = step.fill_for(exclusive, result.shared)
            line = self.array.install(base, way, result.data, state, protocol)
            installed.append(line)
            self._notify_install(base)
            trace = self._trace_cache
            if trace.enabled:
                trace.emit(
                    self.sim.now, self.name, "fill", addr=base, state=str(state),
                    shared=step.shared(result.shared), excl=exclusive,
                )

        yield from self.bus.transact(
            Transaction(op, base, self.name, line_words=self.geom.line_words),
            commit=commit,
        )
        self.stats.bump(self._stat_fills)
        return installed[0]

    def _evict(self, victim: CacheLine, victim_addr: int, way: int) -> Generator:
        """Retire the victim occupying ``way``.

        Dirty victims stay valid (and snoopable) until the write-back
        commits, so no master can slip in a read of stale memory between
        the eviction decision and the memory update.
        """
        def settle():
            victim.state = _INVALID
            self.array.release_way(victim_addr, way)
            self._notify_remove(victim_addr, "evict")

        if victim.state in _DIRTY:
            yield from self._write_back(victim_addr, victim, settle)
            self.stats.bump(self._stat_writebacks)
        else:
            settle()
        self.stats.bump(self._stat_evictions)

    def _flush_locked(self, addr: int, priority: Priority) -> Generator:
        base = self.geom.line_base(addr)
        line = self.array.lookup(base)
        if line is None:
            return

        def settle():
            self.array.remove(base)
            self._notify_remove(base, "dcbf")

        if line.state in _DIRTY:
            yield from self._write_back(base, line, settle, priority)
            self.stats.bump(self._stat_writebacks)
        else:
            settle()
        self.stats.bump(self._stat_flushes)

    def _write_back(
        self, base: int, line: CacheLine, settle: Callable[[], None],
        priority: Priority = Priority.NORMAL,
    ) -> Generator:
        """Push dirty ``line`` to memory: the one bus exit of a dirty line.

        DCBST, the snoop push, eviction and DCBF all come here.  While
        the bus is still held, ``settle()`` commits the exit's own state
        change, unless the line was invalidated while the push waited
        (a DCBI, or a snoop that took it): then there is nothing left to
        settle.  Use as ``yield from self._write_back(...)``.
        """
        def commit(_result):
            if line.state is not _INVALID:
                settle()

        return self.bus.transact(
            Transaction(
                BusOp.WRITE_LINE, base, self.name,
                data=line.data, line_words=self.geom.line_words,
            ),
            priority=priority,
            commit=commit,
        )

    def _commit_snoop(self, held: Tuple[int, CacheLine], next_state: State) -> None:
        self._apply_snoop_state(*held, next_state)

    def _apply_snoop_state(self, base: int, line: CacheLine, next_state: State) -> None:
        if next_state is State.INVALID:
            self.array.remove(base)
            self._notify_remove(base, "snoop")
        elif line.state is not next_state:
            self._set_state(base, line, next_state, "snoop")

    def _set_state(self, base: int, line: CacheLine, state: State, cause: str) -> None:
        trace = self._trace_cache
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, "state",
                addr=base, frm=str(line.state), to=str(state), cause=cause,
            )
        line.state = state

    def _notify_install(self, base: int) -> None:
        for listener in self.install_listeners:
            listener(base)

    def _notify_remove(self, base: int, cause: str) -> None:
        trace = self._trace_cache
        if trace.enabled:
            trace.emit(self.sim.now, self.name, "invalidate", addr=base, cause=cause)
        for listener in self.remove_listeners:
            listener(base)

    def _protocol_for(self, region) -> CoherenceProtocol:
        if (
            self.protocol_wt is not None
            and region.write_policy is WritePolicy.WRITE_THROUGH
        ):
            return self.protocol_wt
        if self.protocol is None:
            raise ProtocolError(f"{self.name}: cache enabled but no protocol configured")
        return self.protocol
