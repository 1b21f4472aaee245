"""The atomic-tenure snoopy ASB as a fabric (the default).

Pure delegation to :class:`~repro.bus.asb.AsbBus`: every timing and
ordering decision is inherited unchanged, so a platform built on this
fabric is byte-identical to the pre-fabric bus — the committed golden
trace and ``BENCH_hotpath.json`` pin that down.
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
        line_bytes=32,
    ) -> "AtomicFabric":
        # line_bytes accepted for contract uniformity; a broadcast bus
        # has no per-line structures of its own.
        return cls(
            sim,
            clock,
            controller,
            arbiter=arbiter_factory(),
            tracer=tracer,
            stats=stats,
            max_retries=max_retries,
        )

    def snapshot(self) -> dict:
        return {
            "fabric": self.name,
            "completions": self.completions,
            "arbiter": self.arbiter.snapshot(),
            "inflight": [t.describe() for t in self.inflight_tenures()],
        }

    @classmethod
    def fingerprint(cls) -> Dict[str, object]:
        return {"name": cls.name, "version": cls.version}
