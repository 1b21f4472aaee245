"""The fabric contract: what a coherence interconnect must provide.

The *model* — protocol tables, cache controllers, wrappers, snoop
logic — speaks to the interconnect through a small surface: transact a
bus operation, attach/detach snoopers, register masters, report
in-flight tenures.  A **fabric** is one interconnect organisation
behind that surface (see ``docs/fabrics.md``):

``atomic``
    The paper's atomic-tenure snoopy ASB: one bus, one tenure at a
    time, broadcast snooping.  The default, byte-identical to the
    committed golden trace.
``split``
    A split-transaction bus: address and data phases decoupled into
    pipelined tenures behind a bounded in-flight window.  Coherence
    actions still serialise in address-grant order.
``directory``
    A directory interconnect: a per-line-home directory tracks which
    caches hold each line and forwards snoops point-to-point instead
    of broadcasting, with per-home-bank concurrency.

All three run one tenure loop, :meth:`repro.bus.asb.AsbBus.transact`;
a fabric overrides only its arbitration domain, its address-phase
length and the placement of its data occupancy.

This package never imports :mod:`repro.core.platform` (the fabric
*vocabulary*, ``FABRIC_NAMES``, lives there), and the bus model never
imports this package — the ``fabric-contract`` lint rule enforces both
directions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict

__all__ = ["IFabric"]


class IFabric(ABC):
    """One interconnect organisation for the coherence model.

    Concrete fabrics additionally provide the bus surface the model
    already speaks (``attach_snooper`` / ``detach_snooper`` /
    ``register_master`` / ``inflight_tenures`` / ``arbiter`` /
    ``completions``) and ``transact`` itself by deriving from
    :class:`~repro.bus.asb.AsbBus`; no fabric defines its own
    ``transact``.  Its semantics hold on every fabric: the snoop window
    and all coherence state changes happen while the transaction's
    arbitration domain is held, serialised per address; ``validate`` is
    consulted at grant time and a False answer cancels the tenure
    (``None`` returned, no snooper consulted); ARTRY backs the master
    off until the retrying snoopers' drains complete.  The
    ``fabric-contract`` lint rule validates the full surface of every
    registered fabric.
    """

    #: registry key; must match the entry in ``platform.FABRIC_NAMES``
    name: str = "?"
    #: bumped whenever the fabric's observable behaviour changes
    version: int = 0

    @classmethod
    @abstractmethod
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
    ) -> "IFabric":
        """Construct a fabric instance for one platform.

        ``arbiter_factory`` builds one arbiter of the configured
        service discipline per call — fabrics with internal concurrency
        (the directory's home banks) call it more than once.
        """

    @classmethod
    @abstractmethod
    def fingerprint(cls) -> Dict[str, object]:
        """Identity embedded in bench baselines."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} v{self.version}>"
