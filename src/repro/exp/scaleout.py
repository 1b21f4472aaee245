"""N-master sweeps: bus service disciplines and coherence fabrics.

The paper evaluates two-master platforms; the wrapper methodology
itself never assumes two.  These sweeps measure what limits an
N-master build of it.  Both run one fixed contended false-sharing
workload over the same mixed-protocol platform (MESI / MOESI / MSI /
MEI cycling across the masters, every one behind its reduction
wrapper) at 2/4/8/16 masters, and differ only in the
:class:`PlatformConfig` field they vary:

* ``scaleout`` varies the NORMAL-band service discipline of the shared
  bus — FCFS, static per-master priority, round-robin (cf.
  arXiv:1004.3560's service-discipline comparison on a shared-bus
  multiprocessor);
* ``fabrics`` varies the interconnect itself under round-robin
  arbitration — the atomic snoopy ASB, the split-transaction bus and
  the directory.

Every point records:

* ``elapsed_ns`` — simulated completion time of the whole workload;
* ``bus_txns`` — completed tenures (coherence traffic volume; atomic
  and split match exactly — the split bus pipelines occupancy, not
  semantics — while the directory's differs because point-to-point
  forwarding changes the ARTRY/drain interleaving);
* ``grant_spread`` — max/min per-master grant counts: 1.0 is perfect
  fairness, large values mean some master is being starved;

and the fabric sweep adds ``busy_ticks``, the total channel occupancy.
Its headline is the snoopy-vs-directory scaling gap: one broadcast bus
serialises every address phase, so contended completion time grows
steeply with masters, while the directory's per-home banks let
disjoint lines proceed concurrently.

Everything measured is *simulated* and therefore deterministic: the
committed ``BENCH_scaleout.json`` and ``BENCH_fabrics.json`` are golden
files, and ``repro bench {scaleout,fabrics} --check`` compares against
them exactly (no wall-clock tolerance needed).
"""

from __future__ import annotations

import sys
from functools import partial
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.platform import Platform, PlatformConfig
from ..cpu.presets import preset_generic
from ..workloads.tracegen import false_sharing_traces, replay_parallel
from .bench import EXACT, BenchSuite

__all__ = [
    "DISCIPLINES",
    "FABRICS",
    "MASTER_COUNTS",
    "SCALEOUT_SUITE",
    "FABRICS_SUITE",
    "run_point",
    "run_suite",
]

DISCIPLINES = ("fcfs", "priority", "round-robin")
FABRICS = ("atomic", "split", "directory")
MASTER_COUNTS = (2, 4, 8, 16)
QUICK_MASTER_COUNTS = (2, 4, 8)

#: protocols cycled across the masters — a genuinely mixed platform
_PROTOCOL_CYCLE = ("MESI", "MOESI", "MSI", "MEI")


class _Sweep(NamedTuple):
    #: the point field naming the varied setting
    label: str
    #: the PlatformConfig field it sets
    field: str
    values: Tuple[str, ...]
    #: settings held fixed (recorded in the document's params)
    fixed: Dict[str, str]
    #: whether points record the channel occupancy
    busy_ticks: bool


_SWEEPS = {
    "scaleout": _Sweep("discipline", "arbitration", DISCIPLINES, {}, False),
    "fabrics": _Sweep(
        "fabric", "fabric", FABRICS, {"arbitration": "round-robin"}, True
    ),
}


def _platform(n_masters: int, **config: str) -> Platform:
    cores = tuple(
        preset_generic(f"p{i}", _PROTOCOL_CYCLE[i % len(_PROTOCOL_CYCLE)])
        for i in range(n_masters)
    )
    # "window" drains: an N-master platform must push snoop data in the
    # post-ARTRY window or contended dirty lines cross-deadlock (the
    # paper-faithful "retry-first" port model wedges beyond two busy
    # masters — that hazard is the deadlock demo's subject, not ours).
    return Platform(
        PlatformConfig(
            cores=cores,
            hardware_coherence=True,
            drain_policy="window",
            **config,
        )
    )


def run_point(
    sweep: str, n_masters: int, value: str, accesses_per_master: int = 40
) -> Dict[str, Any]:
    """One measurement of ``sweep`` at ``n_masters`` with its varied
    setting at ``value`` (a discipline or a fabric)."""
    spec = _SWEEPS[sweep]
    platform = _platform(n_masters, **spec.fixed, **{spec.field: value})
    traces = false_sharing_traces(
        accesses_per_master, procs=n_masters, lines=2, seed=11
    )
    result = replay_parallel(platform, traces)
    counts = platform.bus.arbiter.grants_by_master
    spread = (
        max(counts.values()) / min(counts.values()) if counts else 0.0
    )
    point = {
        "masters": n_masters,
        spec.label: value,
        "elapsed_ns": result.elapsed_ns,
        "bus_txns": result.bus_txns,
        "grant_spread": round(spread, 3),
    }
    if spec.busy_ticks:
        point["busy_ticks"] = platform.stats.get("bus.busy_ticks")
    return point


def run_suite(
    sweep: str,
    quick: bool = False,
    master_counts: Optional[Sequence[int]] = None,
    accesses_per_master: int = 40,
) -> Dict[str, Any]:
    """The full ``sweep``; returns the result document.

    ``quick`` drops the 16-master column (CI smoke); the per-point
    workload itself is fixed, so the surviving points stay comparable
    to a committed full-mode baseline.
    """
    spec = _SWEEPS[sweep]
    counts = tuple(
        master_counts
        if master_counts is not None
        else (QUICK_MASTER_COUNTS if quick else MASTER_COUNTS)
    )
    points: List[Dict[str, Any]] = [
        run_point(sweep, n, value, accesses_per_master)
        for value in spec.values
        for n in counts
    ]
    return {
        "schema": 1,
        "suite": sweep,
        "quick": bool(quick),
        "python": sys.version.split()[0],
        "params": {
            "master_counts": list(counts),
            "accesses_per_master": accesses_per_master,
            "protocol_cycle": list(_PROTOCOL_CYCLE),
            **spec.fixed,
        },
        "points": points,
    }


def _fabric_headline(document: Dict[str, Any]) -> Optional[str]:
    """The snoopy-vs-directory gap at the largest shared master count."""
    index = {
        (p["fabric"], p["masters"]): p for p in document.get("points", [])
    }
    masters = sorted(
        {p["masters"] for p in document.get("points", [])}, reverse=True
    )
    for n in masters:
        snoopy = index.get(("atomic", n))
        directory = index.get(("directory", n))
        if snoopy and directory and directory["elapsed_ns"]:
            ratio = snoopy["elapsed_ns"] / directory["elapsed_ns"]
            return (
                f"headline: at {n} masters the directory completes the "
                f"contended workload {ratio:.2f}x faster than the "
                f"snoopy bus ({directory['elapsed_ns']:,} ns vs "
                f"{snoopy['elapsed_ns']:,} ns)"
            )
    return None


#: simulated metrics: any drift on a shared point is a behaviour change
#: someone must have intended (and should re-baseline deliberately)
_CHECKS = {"*": dict.fromkeys(("elapsed_ns", "bus_txns"), EXACT)}

SCALEOUT_SUITE = BenchSuite(
    name="scaleout",
    bench_file="BENCH_scaleout.json",
    run=partial(run_suite, "scaleout"),
    rows="points",
    key=("discipline", "masters"),
    checks=_CHECKS,
    columns=("elapsed_ns", "bus_txns", "grant_spread"),
)

FABRICS_SUITE = BenchSuite(
    name="fabrics",
    bench_file="BENCH_fabrics.json",
    run=partial(run_suite, "fabrics"),
    rows="points",
    key=("fabric", "masters"),
    checks=_CHECKS,
    columns=("elapsed_ns", "bus_txns", "busy_ticks", "grant_spread"),
    headline=_fabric_headline,
)
