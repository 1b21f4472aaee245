"""Workload plumbing for cross-engine runs.

Engines consume one flat, ordered access list so their results are
comparable by construction.  The fuzz generator's workload families
produce either a serial trace or one trace per master;
:func:`serialize_workload` flattens the latter deterministically
(round-robin, master order) so the same interleaving drives every
engine.  :func:`reference_config` / :func:`reference_workload` define
the standard cross-engine benchmark point used by the hotpath suite
and the engine equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.platform import PlatformConfig
from ..cpu.presets import preset_generic
from ..fuzz.case import build_workload
from ..workloads.tracegen import TraceAccess

__all__ = [
    "serialize_traces",
    "serialize_workload",
    "reference_config",
    "reference_workload",
]


def serialize_traces(
    traces: Dict[int, Sequence[TraceAccess]]
) -> List[TraceAccess]:
    """Round-robin interleave per-master traces into one serial order.

    Deterministic: masters in ascending index order, one access each
    per round, shorter traces simply drop out.  This fixes *an*
    interleaving — any serialised order is a legal concurrency of the
    original workload — and every engine then replays that same order.
    """
    order = sorted(traces)
    cursors = {proc: 0 for proc in order}
    out: List[TraceAccess] = []
    remaining = sum(len(traces[proc]) for proc in order)
    while remaining:
        for proc in order:
            i = cursors[proc]
            trace = traces[proc]
            if i < len(trace):
                out.append(trace[i])
                cursors[proc] = i + 1
                remaining -= 1
    return out


def serialize_workload(workload: Dict) -> List[TraceAccess]:
    """A fuzz-style workload dict as one flat serialised access list."""
    mode, traces = build_workload(workload)
    if mode == "serial":
        return list(traces)
    return serialize_traces(traces)


def reference_config(
    protocol: str = "MESI", cache_size: int = 4096, ways: int = 4
) -> PlatformConfig:
    """The standard two-master config for cross-engine benchmarks."""
    return PlatformConfig(
        cores=(
            preset_generic("p0", protocol).with_(
                cache_size=cache_size, cache_ways=ways
            ),
            preset_generic("p1", protocol).with_(
                cache_size=cache_size, cache_ways=ways
            ),
        ),
        hardware_coherence=True,
    )


def reference_workload(n: int = 4000, seed: int = 7) -> List[TraceAccess]:
    """The standard cross-engine benchmark trace.

    A two-master hotspot mix over a footprint that mostly fits the
    reference caches: high hit rate with a steady stream of coherence
    traffic — the regime statistics-only sweeps live in.
    """
    return serialize_workload(
        {"kind": "hotspot", "n": n, "footprint_words": 512,
         "seed": seed, "procs": 2}
    )
