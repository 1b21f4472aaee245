"""Coherence fabrics: the interconnect organisations a platform runs on.

``atomic``
    The paper's atomic-tenure snoopy ASB, :class:`~repro.bus.asb.AsbBus`
    itself.  The default, byte-identical to the committed golden trace.
``split``
    A split-transaction bus: address and data phases decoupled into
    pipelined tenures behind a bounded in-flight window.
``directory``
    A directory interconnect: snoops forwarded only to the caches that
    hold the line, with per-home-bank arbitration concurrency.

All three run one tenure loop, :meth:`repro.bus.asb.AsbBus.transact`;
a fabric overrides only its arbitration domain, its address-phase
length and the placement of its data occupancy.  See
``docs/fabrics.md``.

The bus model never imports this package, and this package never
imports :mod:`repro.core.platform` back — the ``fabric-contract`` lint
rule enforces both directions.
"""

from ..bus.asb import AsbBus
from .split import SplitBus
from .directory import BankedArbiter, DirectoryFabric

__all__ = ["FABRICS", "SplitBus", "BankedArbiter", "DirectoryFabric"]

#: fabric name -> bus class; ``PlatformConfig.fabric`` names one
FABRICS = {"atomic": AsbBus, "split": SplitBus, "directory": DirectoryFabric}
