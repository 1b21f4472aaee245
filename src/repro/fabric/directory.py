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
  per-address serialisation the coherence checker relies on.  The line
  size is the one ``register_master`` records for the bus presence map.

The tenure is :meth:`~repro.bus.asb.AsbBus.transact`, unchanged but
for two overrides: its arbitration domain is the line's home bank
(:meth:`DirectoryFabric._arbiter_for`), and ``address_cycles``
includes ``DIRECTORY_LOOKUP_CYCLES``.  Each bank tenure is atomic
(address + directory lookup + data), and the protocol tables, wrapper
conversions, ARTRY/drain handover and validate-cancel semantics are the
ASB model's.  Fabric-specific counters use the ``fabric.dir.`` prefix.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..bus.asb import AsbBus
from ..bus.types import Transaction

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


class DirectoryFabric(AsbBus):
    """Per-line-home directory with point-to-point snoop forwarding."""

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
        # The lookup is part of every address phase.
        self.address_cycles += self.DIRECTORY_LOOKUP_CYCLES
        # Homes hash whole lines: until a master registers its cache
        # geometry (register_master), lines are the presets' 32 bytes.
        self._line_mask = ~31
        self._banks: Tuple = tuple(arbiter_factory() for _ in range(max(1, banks)))
        #: the watchdog-facing aggregate over the home banks
        self.arbiter = BankedArbiter(self._banks)

    @classmethod
    def build(cls, sim, clock, controller, *, arbiter_factory, **kwargs):
        """One arbiter per home bank, each from ``arbiter_factory``."""
        return cls(sim, clock, controller, arbiter_factory=arbiter_factory, **kwargs)

    # -- home banks ---------------------------------------------------------
    def _arbiter_for(self, addr: int):
        """The line's home bank (``-_line_mask`` is the line size)."""
        return self._banks[(addr // -self._line_mask) % len(self._banks)]

    # -- internals ----------------------------------------------------------
    def _snoop_window(self, txn: Transaction):
        """The shared presence-filtered window, counted as a directory
        lookup plus one forward per snooper consulted."""
        self.stats.bump("fabric.dir.lookups")
        window = super()._snoop_window(txn)
        if window:
            self.stats.bump("fabric.dir.forwards", len(window))
        return window
