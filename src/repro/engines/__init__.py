"""Swappable simulation engines (model/engine split).

The coherence *model* — protocol tables, controllers, bus semantics —
lives in ``repro.cache`` / ``repro.bus`` / ``repro.core``.  This
package holds the *engines* that execute it: ``exact`` (the event
kernel, golden-trace identical, on native builds of the hot modules
when available) and ``batch`` (trace-driven functional replay,
statistics only).  See ``docs/engines.md``.

Pick an engine by name and run a workload through it::

    from repro.engines import get_engine
    result = get_engine("batch").run(config, accesses)

The import direction is one-way: engines import the model, model code
never imports this package (the ``engine-contract`` lint rule).
"""

from __future__ import annotations

from ..errors import ConfigError
from .interfaces import EngineRunResult, ISimEngine
from .exact import ExactEngine, kernel_is_native, native_modules
from .batch import BatchEngine
from .workloads import (
    reference_config,
    reference_workload,
    serialize_traces,
    serialize_workload,
)

__all__ = [
    "ISimEngine",
    "EngineRunResult",
    "ExactEngine",
    "BatchEngine",
    "ENGINES",
    "get_engine",
    "kernel_is_native",
    "native_modules",
    "serialize_traces",
    "serialize_workload",
    "reference_config",
    "reference_workload",
]

#: engine name -> the engine (stateless, so one instance serves every run)
ENGINES = {"exact": ExactEngine(), "batch": BatchEngine()}


def get_engine(name: str) -> ISimEngine:
    """The engine called ``name``."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; pick from {sorted(ENGINES)}"
        ) from None
