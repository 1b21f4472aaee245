"""The exact engine: the discrete-event kernel, golden-trace identical.

A thin adapter: build the platform, drive the serialised trace through
the cache controllers one access at a time with
:func:`repro.workloads.tracegen.drive` (each access completes before
the next begins, exactly like ``replay_trace``), and collect the
counters plus the final line-state occupancy.

Native builds: ``tools/build_native.py`` compiles the :data:`HOT_MODULES`
with mypyc or Cython when either is installed.  A compiled build drops
a ``.so``/``.pyd`` next to the source, which the import system then
prefers automatically — so detection is simply "which file did the
interpreter actually import?".  Semantics are identical either way
(the golden-trace test runs on whichever build is importable);
``fingerprint()["native"]`` records which one ran, so a bench baseline
never compares a native run against a pure-Python one.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, Sequence

from ..core.platform import Platform, PlatformConfig
from ..workloads.tracegen import drive
from .interfaces import EngineRunResult, ISimEngine

__all__ = [
    "ExactEngine",
    "HOT_MODULES",
    "kernel_is_native",
    "line_state_occupancy",
    "native_modules",
]

#: the modules a native build accelerates
HOT_MODULES = ("repro.sim.kernel", "repro.cache.array")

_NATIVE_SUFFIXES = (".so", ".pyd")


def _module_is_native(module_name: str) -> bool:
    module = importlib.import_module(module_name)
    path = getattr(module, "__file__", "") or ""
    return path.endswith(_NATIVE_SUFFIXES)


def native_modules() -> Dict[str, bool]:
    """Which hot modules are currently backed by compiled extensions."""
    return {name: _module_is_native(name) for name in HOT_MODULES}


def kernel_is_native() -> bool:
    """True when every hot module imported as a compiled extension."""
    return all(native_modules().values())


def line_state_occupancy(platform: Platform) -> dict:
    """Final per-master count of valid lines by state letter."""
    occupancy = {}
    for cfg, controller in zip(platform.config.cores, platform.controllers):
        counts: dict = {}
        for _addr, line in controller.array.valid_lines():
            key = line.state.value
            counts[key] = counts.get(key, 0) + 1
        occupancy[cfg.name] = counts
    return occupancy


class ExactEngine(ISimEngine):
    """The event-kernel engine (the default)."""

    name = "exact"
    version = 1

    def run(
        self, config: PlatformConfig, accesses: Sequence
    ) -> EngineRunResult:
        platform = Platform(config)
        values: list = []
        platform.sim.process(
            drive(platform, accesses, values), name=f"{self.name}-driver"
        )
        # Wall time is a benchmark metric here, not simulator state:
        # simulated time is elapsed_ns (sim.now) below.
        start = time.perf_counter()  # repro: lint-ok[determinism]
        platform.sim.run(detect_deadlock=False)
        wall = time.perf_counter() - start  # repro: lint-ok[determinism]
        return EngineRunResult(
            engine=self.name,
            stats=platform.stats.as_dict(),
            accesses=len(accesses),
            events=platform.sim.events_fired,
            elapsed_ns=platform.sim.now,
            wall_s=wall,
            line_states=line_state_occupancy(platform),
            values=values,
        )

    def fingerprint(self) -> Dict[str, object]:
        return dict(super().fingerprint(), native=kernel_is_native())
