"""A directory-based coherence interconnect.

A **directory** records, per line, exactly which caches hold a copy,
and forwards snoops point-to-point to those caches only (cf. the
phase-priority directory-coherence line of work, arXiv:1305.3038).

* **Forwarding.** The sharer set is the presence map every
  :class:`~repro.bus.asb.AsbBus` keeps (fed by each cache controller's
  install/remove listeners, an exact mirror of which caches hold the
  line valid), and forwarding is the shared presence-filtered snoop
  window.  That is equivalent to broadcast: a cache without the line
  answers every snoop MISS/OK, contributing nothing.  The directory
  adds only its lookup and forward counters.
* **Home banks.** The structural difference from the snoopy fabrics.
  The line address hashes to one of ``banks``
  per-home arbiters (each an instance of the configured service
  discipline), so transactions to different homes proceed
  concurrently — the scaling win over a single snoopy bus.  Same-line
  transactions always hash to the same bank, preserving the
  per-address serialisation the coherence checker relies on.  Each
  bank tenure is atomic (address + directory lookup + data), and the
  lookup adds ``DIRECTORY_LOOKUP_CYCLES`` to every address phase.

The protocol tables, wrapper conversions, snoop window, ARTRY/drain
handover and validate-cancel semantics are all reused unchanged from
the ASB model; only *how tenures are arbitrated* differs.
Fabric-specific counters use the ``fabric.dir.`` prefix.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from ..bus.types import BusResult, Priority, Transaction, resolve_window
from ..bus.asb import TenureState
from .atomic import AtomicFabric
from .registry import register_fabric

__all__ = ["BankedArbiter", "DirectoryFabric"]


class BankedArbiter:
    """Aggregate diagnostic view over the per-home-bank arbiters.

    Presents the same read surface a single arbiter does (``grants``,
    ``grants_by_master``, ``pending``, ``snapshot``) so the watchdog
    and the experiment runners work unchanged; fault injectors that
    patch selection (``arbiter.starve``) iterate ``banks`` directly.
    """

    def __init__(self, banks: Tuple):
        self.banks = banks

    @property
    def grants(self) -> int:
        return sum(bank.grants for bank in self.banks)

    @property
    def grants_by_master(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for bank in self.banks:
            for master, count in bank.grants_by_master.items():
                merged[master] = merged.get(master, 0) + count
        return merged

    def pending(self) -> int:
        return sum(bank.pending() for bank in self.banks)

    def snapshot(self) -> dict:
        return {
            "grants": self.grants,
            "banks": [bank.snapshot() for bank in self.banks],
        }


@register_fabric
class DirectoryFabric(AtomicFabric):
    """Per-line-home directory with point-to-point snoop forwarding."""

    name = "directory"
    version = 1

    #: default number of home banks (concurrent arbitration domains)
    DEFAULT_BANKS = 8
    #: directory lookup latency added to every address phase
    DIRECTORY_LOOKUP_CYCLES = 1

    def __init__(
        self,
        sim,
        clock,
        controller,
        *,
        arbiter_factory,
        banks: int = DEFAULT_BANKS,
        line_bytes: int = 32,
        tracer=None,
        stats=None,
        max_retries=1000,
    ):
        super().__init__(
            sim,
            clock,
            controller,
            arbiter=None,
            tracer=tracer,
            stats=stats,
            max_retries=max_retries,
        )
        self.line_bytes = line_bytes
        self._banks: Tuple = tuple(arbiter_factory() for _ in range(max(1, banks)))
        #: the watchdog-facing aggregate over the home banks
        self.arbiter = BankedArbiter(self._banks)

    @classmethod
    def build(
        cls,
        sim,
        clock,
        controller,
        *,
        arbiter_factory,
        tracer=None,
        stats=None,
        max_retries=1000,
        line_bytes=32,
    ) -> "DirectoryFabric":
        return cls(
            sim,
            clock,
            controller,
            arbiter_factory=arbiter_factory,
            line_bytes=line_bytes,
            tracer=tracer,
            stats=stats,
            max_retries=max_retries,
        )

    @classmethod
    def fingerprint(cls) -> Dict[str, object]:
        return {
            "name": cls.name,
            "version": cls.version,
            "banks": cls.DEFAULT_BANKS,
            "lookup_cycles": cls.DIRECTORY_LOOKUP_CYCLES,
        }

    def snapshot(self) -> dict:
        return {
            "fabric": self.name,
            "completions": self.completions,
            "tracked_lines": len(self._presence),
            "arbiter": self.arbiter.snapshot(),
            "inflight": [t.describe() for t in self.inflight_tenures()],
        }

    # -- home banks ---------------------------------------------------------
    def _bank_for(self, addr: int):
        return self._banks[(addr // self.line_bytes) % len(self._banks)]

    # -- the tenure ---------------------------------------------------------
    def transact(
        self,
        txn: Transaction,
        priority: Priority = Priority.NORMAL,
        commit=None,
        validate=None,
    ) -> Generator:
        """One tenure on the line's home bank.

        Identical phase structure to the atomic bus, except the
        arbitration domain is the per-home bank, the address phase pays
        the directory lookup, and only recorded sharers are snooped.
        """
        sim = self.sim
        start = sim.now
        self.stats.bump("bus.txns")
        self.stats.bump(f"bus.op.{txn.op.value}")
        self.stats.bump(f"bus.master.{txn.master}")
        state = TenureState(txn.master, txn.op.value, txn.addr, start)
        self._inflight[id(txn)] = state
        bank = self._bank_for(txn.addr)
        held = False
        try:
            while True:
                yield bank.request(txn.master, priority)
                held = True
                if validate is not None and not validate():
                    bank.release(txn.master)
                    held = False
                    self._record_cancellation(txn)
                    return None
                tenure_start = sim.now
                state.phase = "address"
                state.since = tenure_start
                arb_cycles = 0 if priority is Priority.DRAIN else self.arbitration_cycles
                yield sim.timeout(
                    self.clock.edge_then_cycles(
                        sim.now,
                        arb_cycles + self.address_cycles + self.DIRECTORY_LOOKUP_CYCLES,
                    )
                )
                trace = self._trace_bus
                if trace.enabled:
                    trace.emit(
                        sim.now, txn.master, "address-phase",
                        op=txn.op.value, addr=txn.addr, retry_no=txn.retries,
                    )
                retriers, shared, supplier = resolve_window(self._snoop_window(txn))
                if retriers:
                    yield from self._abort_tenure(txn, tenure_start)
                    bank.release(txn.master)
                    held = False
                    yield from self._await_drains(txn, state, retriers)
                    priority = Priority.RETRY
                    continue
                state.phase = "data"
                state.since = sim.now
                data, cycles = self._data_phase(txn, supplier)
                yield sim.timeout(self.clock.cycles(cycles))
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
                tenure = sim.now - tenure_start
                self.stats.bump("bus.busy_ticks", tenure)
                self.stats.bump(f"bus.busy.{txn.master}", tenure)
                bank.release(txn.master)
                held = False
                self._note_completion(txn)
                return result
        finally:
            del self._inflight[id(txn)]
            if held:
                bank.release(txn.master)

    # -- internals ----------------------------------------------------------
    def _snoop_window(self, txn: Transaction):
        """The shared presence-filtered window, counted as a directory
        lookup plus one forward per snooper consulted."""
        self.stats.bump("fabric.dir.lookups")
        window = super()._snoop_window(txn)
        if window:
            self.stats.bump("fabric.dir.forwards", len(window))
        return window
