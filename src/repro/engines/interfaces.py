"""The engine contract: how a simulation engine executes a workload.

The *model* — protocol tables, controllers, bus/arbiter semantics,
memory map — lives in ``repro.cache`` / ``repro.bus`` / ``repro.core``
and knows nothing about execution strategy.  An **engine** is an
execution strategy for that model: it takes a platform configuration
plus a serialised access trace and produces statistics.  Two engines
ship behind this contract (see ``docs/engines.md``):

``exact``
    The discrete-event kernel, byte-identical to the committed golden
    trace.  The default, and the only engine with timing; it runs on
    natively compiled builds of the hot modules when those are
    importable (pure-Python otherwise).
``batch``
    A trace-driven functional replay of the same coherence model with
    no event kernel at all — statistics only, one to two orders of
    magnitude faster.

Model code must never import this package (the ``engine-contract``
lint rule enforces the direction); engines import the model freely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import at runtime
    from ..core.platform import PlatformConfig
    from ..workloads.tracegen import TraceAccess

__all__ = ["EngineRunResult", "ISimEngine"]


@dataclass
class EngineRunResult:
    """What one engine run produced.

    ``stats`` carries the same counter keys the platform's
    :class:`~repro.sim.Stats` bag uses; engines without timing report
    ``elapsed_ns == 0`` and ``events == 0`` and omit the ``bus.busy*``
    keys (the documented timing-only exclusions).
    ``line_states`` maps each master to its final per-state count of
    valid lines — the per-state occupancy the equivalence suite
    compares across engines.
    """

    engine: str
    stats: Dict[str, int]
    accesses: int
    #: kernel events fired (0 for engines that do not run the kernel)
    events: int
    #: simulated completion time in ns (0 for engines without timing)
    elapsed_ns: int
    #: wall-clock execution time of the run, in seconds
    wall_s: float
    #: master name -> {state letter -> valid line count}
    line_states: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: per-access results: loaded value, pre-swap value, None for stores
    values: List[Optional[int]] = field(default_factory=list)


class ISimEngine(ABC):
    """One execution strategy for the coherence model."""

    #: the engine's key in :data:`repro.engines.ENGINES`
    name: str = "?"
    #: bumped whenever the engine's observable behaviour changes; part
    #: of every content-addressed cache key (a result produced by one
    #: engine version can never satisfy a request for another)
    version: int = 0

    @abstractmethod
    def run(
        self, config: "PlatformConfig", accesses: Sequence["TraceAccess"]
    ) -> EngineRunResult:
        """Execute the serialised ``accesses`` against ``config``.

        Every engine consumes the same input shape — a flat, ordered
        access list — so results are comparable across engines by
        construction.
        """

    def fingerprint(self) -> Dict[str, object]:
        """Identity embedded in cache keys and bench baselines.

        ``native`` says whether compiled hot modules backed the run;
        only the exact engine can run on them (it overrides this).
        """
        return {"name": self.name, "version": self.version, "native": False}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} v{self.version}>"
