"""The atomic-tenure snoopy ASB as a fabric (the default).

:class:`~repro.bus.asb.AsbBus` with the fabric contract's ``build`` and
``fingerprint`` added: the tenure loop and every timing and ordering
decision are the bus's own, so a platform built on this fabric is
byte-identical to the bare bus — the committed golden trace and
``BENCH_hotpath.json`` pin that down.  The other fabrics derive from
this class and override only what :meth:`~repro.bus.asb.AsbBus.transact`
lets them change.
"""

from __future__ import annotations

from typing import Dict

from ..bus.asb import AsbBus
from .interfaces import IFabric
from .registry import register_fabric

__all__ = ["AtomicFabric"]


# One fabric per platform: a __dict__ here is off the per-event path.
@register_fabric
class AtomicFabric(AsbBus, IFabric):
    """The paper-faithful atomic-tenure snoopy bus."""

    name = "atomic"
    version = 1

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
    ) -> "AtomicFabric":
        return cls(
            sim,
            clock,
            controller,
            arbiter=arbiter_factory(),
            tracer=tracer,
            stats=stats,
            max_retries=max_retries,
        )

    @classmethod
    def fingerprint(cls) -> Dict[str, object]:
        return {"name": cls.name, "version": cls.version}
