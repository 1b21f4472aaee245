"""Workload inputs and output checks shared by the benchmark processes.

Inputs are made from the workload seed only; the program under test
receives the generated access traces (or, for the figure workload, the
paper's fixed parameters).  Every modelled cache starts empty: each
operation builds a fresh platform or batch model.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

#: workload name -> (trace family, engine)
TRACE_WORKLOADS = {
    "private-hits-exact": ("private-hits", "exact"),
    "private-hits-batch": ("private-hits", "batch"),
    "coherence-storm-exact": ("coherence-storm", "exact"),
    "coherence-storm-batch": ("coherence-storm", "batch"),
}
FIGURE_WORKLOAD = "paper-fig6"
SERVICE_WORKLOAD = "service-campaign"
WORKLOADS = list(TRACE_WORKLOADS) + [FIGURE_WORKLOAD, SERVICE_WORKLOAD]

#: accesses per master in each trace family
PRIVATE_HITS_PER_MASTER = 32000
COHERENCE_STORM_PER_MASTER = 400
STORM_PROTOCOLS = ("MESI", "MOESI", "MSI", "MEI")


def trace_inputs(family: str, seed: int):
    """``(PlatformConfig, serialised accesses)`` for one trace family."""
    from repro.core.platform import SHARED_BASE, PlatformConfig
    from repro.cpu.presets import preset_generic
    from repro.engines import serialize_traces
    from repro.workloads.tracegen import hotspot_trace

    def core(i: int, protocol: str):
        return preset_generic(f"p{i}", protocol).with_(cache_size=4096, cache_ways=4)

    if family == "private-hits":
        # Two MESI masters, each over its own 768-word footprint at
        # disjoint bases: the footprint fits the 4 KiB cache.
        config = PlatformConfig(cores=(core(0, "MESI"), core(1, "MESI")))
        traces = {
            p: hotspot_trace(PRIVATE_HITS_PER_MASTER, 768, proc=p,
                             base=SHARED_BASE + p * 0x1000, seed=seed * 16 + p)
            for p in range(2)
        }
    elif family == "coherence-storm":
        # Eight masters cycling four protocols behind their reduction
        # wrappers over one shared 2048-word footprint (twice a cache).
        config = PlatformConfig(
            cores=tuple(core(i, STORM_PROTOCOLS[i % 4]) for i in range(8)),
            drain_policy="window",
        )
        traces = {
            p: hotspot_trace(COHERENCE_STORM_PER_MASTER, 2048, proc=p,
                             base=SHARED_BASE, seed=seed * 16 + p)
            for p in range(8)
        }
    else:
        raise ValueError(f"unknown trace family {family!r}")
    return config, serialize_traces(traces)


def flat_memory_values(accesses: Sequence) -> List[Optional[int]]:
    """What a coherent memory returns for a serialised trace: each load
    sees the last store to its word (0 before any store)."""
    mem: Dict[int, int] = {}
    out: List[Optional[int]] = []
    for a in accesses:
        if a.op == "read":
            out.append(mem.get(a.addr, 0))
        elif a.op == "swap":
            out.append(mem.get(a.addr, 0))
            mem[a.addr] = a.value
        else:
            mem[a.addr] = a.value
            out.append(None)
    return out


def functional_view(result) -> dict:
    """The engine-independent part of a result: every counter except the
    timing-only ``bus.busy*`` keys, final line states and load values."""
    return {
        "stats": {k: v for k, v in result.stats.items() if not k.startswith("bus.busy")},
        "line_states": result.line_states,
        "values": result.values,
    }


def exact_view(result) -> dict:
    """Everything the exact engine promises: all counters, line states,
    load values and simulated completion time."""
    return {
        "stats": result.stats,
        "line_states": result.line_states,
        "values": result.values,
        "elapsed_ns": result.elapsed_ns,
    }


def digest(view: dict) -> str:
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_expected_traces() -> dict:
    with open(os.path.join(EXPECTED_DIR, "traces.json"), encoding="utf-8") as handle:
        return json.load(handle)


def expected_figure() -> str:
    with open(os.path.join(EXPECTED_DIR, "fig6.txt"), encoding="utf-8") as handle:
        return handle.read()


def check_trace_result(family: str, engine: str, seed: int, result, accesses,
                       oracle=None) -> Tuple[List[str], List[str]]:
    """Checks of one replay's outputs: ``(failures, notes)``.

    * load values equal the flat-memory oracle;
    * the exact view (engine ``exact``) or functional view (``batch``)
      equals the committed digest for this seed, when one is committed;
    * a batch result equals ``oracle`` (an exact result of the same
      trace) in its functional view.
    """
    failures: List[str] = []
    notes: List[str] = []
    if result.values != flat_memory_values(accesses):
        failures.append("load values differ from the flat-memory oracle")
    view = exact_view(result) if engine == "exact" else functional_view(result)
    committed = load_expected_traces()[family].get(str(seed))
    if committed is None:
        notes.append(f"no committed digest for seed {seed}; checked against "
                     "the in-process oracles only")
    elif digest(view) != committed["exact" if engine == "exact" else "functional"]:
        failures.append(f"{engine} result differs from the committed digest")
    if oracle is not None and functional_view(oracle) != functional_view(result):
        failures.append("batch result differs from the exact engine's")
    return failures, notes
