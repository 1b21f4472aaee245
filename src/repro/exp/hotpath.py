"""Hot-path microbenchmarks for the simulation substrate.

Measures the three layers every paper-evaluation number flows through —
the event kernel, the cache tag array, and the tracing fabric — plus
the end-to-end wall time of a fixed Table-2 workload (the MESI + MEI
protocol pair of the paper's Table 2 running the WCS critical-section
kernel) and the cross-engine throughput of the reference workload
(exact vs batch, see ``docs/engines.md``).  ``repro bench hotpath``
writes the results to ``BENCH_hotpath.json`` at the repo root so
successive PRs accumulate a performance trajectory (the replaced
numbers are kept under ``previous``), and the CI ``perf-smoke`` job
fails on regressions against the committed baseline, or when the batch
engine is not faster than the exact one (:func:`batch_faster`).

Result documents are **schema 2**: tagged with the execution engine
(name, version, native build or not) and the Python implementation.
Perf numbers are only comparable like-for-like — a pure-Python
baseline checked against a native-build run would "regress" or
"improve" meaninglessly — so
:func:`repro.exp.bench.baseline_mismatch` refuses cross-engine and
cross-implementation comparisons, and ``--check`` exits with status 2
on them.
"""

from __future__ import annotations

import platform as _platform
import statistics
import sys
import time
from typing import Any, Callable, Dict, List

from ..cache.array import CacheArray, CacheGeometry
from ..cache.line import State
from ..cache.protocols import make_protocol
from ..sim import Simulator, Tracer
from .bench import RATE, TIME, BenchSuite

__all__ = ["SUITE", "batch_faster", "run_suite"]

#: metrics where larger is better (rates); wall times are inverted
RATE_METRICS = (
    "kernel_events_per_sec",
    "kernel_timeout_events_per_sec",
    "array_lookups_per_sec",
    "tracer_disabled_emits_per_sec",
    "engine_exact_accesses_per_sec",
    "engine_batch_accesses_per_sec",
    "engine_batch_replay_events_per_sec",
)
TIME_METRICS = ("table2_e2e_seconds",)


def _best_of(repeats: int, fn: Callable[[], float]) -> float:
    """Smallest elapsed wall time over ``repeats`` runs of ``fn``."""
    return min(fn() for _ in range(repeats))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------
def _kernel_zero_delay(n: int) -> float:
    """n rounds of event-create / succeed / resume, all on one tick.

    This is the kernel's same-tick hot path: every ``succeed`` schedules
    a zero-delay firing and every firing resumes a waiting process.
    """
    sim = Simulator()

    def driver():
        event = sim.event
        for _ in range(n):
            ev = event()
            ev.succeed(None)
            yield ev

    sim.process(driver())
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def _kernel_timeouts(n: int) -> float:
    """n one-tick timeouts through the time heap (process resume path)."""
    sim = Simulator()

    def driver():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1)

    sim.process(driver())
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# cache array
# ---------------------------------------------------------------------------
def _array_lookups(n: int) -> float:
    """n lookups (3/4 hits, 1/4 misses) against a full 16 KiB 4-way array."""
    geom = CacheGeometry(16 * 1024, 32, 4)
    array = CacheArray(geom)
    protocol = make_protocol("MESI")
    data = [0] * geom.line_words
    for set_index in range(geom.n_sets):
        for way in range(geom.ways):
            addr = geom.rebuild_addr(way, set_index)
            array.install(addr, way, data, State.EXCLUSIVE, protocol)
    hits = [geom.rebuild_addr(way, s) for way in range(3) for s in (0, 7, 31, 63)]
    misses = [geom.rebuild_addr(geom.ways + 9, s) for s in (0, 7, 31, 63)]
    addrs = (hits + misses) * (n // (len(hits) + len(misses)) + 1)
    addrs = addrs[:n]
    lookup = array.lookup
    start = time.perf_counter()
    for addr in addrs:
        lookup(addr)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
def _tracer_disabled_emits(n: int) -> float:
    """n disabled-channel emissions as a component call site performs
    them: the cached channel guard, tested before every emit."""
    ch = Tracer(channels=()).channel("bus")
    start = time.perf_counter()
    for i in range(n):
        if ch.enabled:
            ch.emit(i, "m0", "grant", op="rd", addr=i, retry_no=0)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# end-to-end: the Table-2 protocol pair under the WCS kernel
# ---------------------------------------------------------------------------
def _table2_e2e(iterations: int) -> float:
    """Wall time of the fixed Table-2 workload (MESI + MEI, WCS loop)."""
    from ..cpu.presets import preset_generic
    from ..workloads.microbench import MicrobenchSpec, run_microbench

    spec = MicrobenchSpec(
        scenario="wcs",
        solution="proposed",
        lines=16,
        exec_time=2,
        iterations=iterations,
    )
    cores = (preset_generic("p1", "MESI"), preset_generic("p2", "MEI"))
    start = time.perf_counter()
    result = run_microbench(spec, cores=cores)
    elapsed = time.perf_counter() - start
    if result.elapsed_ns <= 0:  # pragma: no cover - sanity guard
        raise RuntimeError("table2 e2e workload simulated zero time")
    return elapsed


# ---------------------------------------------------------------------------
# cross-engine throughput: the reference workload on exact vs batch
# ---------------------------------------------------------------------------
def _engine_metrics(n_accesses: int, repeats: int) -> Dict[str, float]:
    """Reference-workload throughput of the exact and batch engines.

    ``engine_batch_replay_events_per_sec`` expresses the batch engine's
    rate in kernel-event-equivalent terms: the number of events the
    exact engine fires replaying this trace, divided by the batch
    engine's wall time.  That is the like-for-like counterpart of
    ``kernel_events_per_sec`` for an engine that fires no events.
    The engines run in at least three interleaved pairs: the rates take
    each engine's best run, the speedup the median ratio of the pairs.
    """
    from ..engines import get_engine, reference_config, reference_workload

    config = reference_config()
    accesses = reference_workload(n=n_accesses)
    exact, batch = get_engine("exact"), get_engine("batch")
    pairs = []
    for _ in range(max(3, repeats)):
        result = exact.run(config, accesses)
        pairs.append((result.wall_s, batch.run(config, accesses).wall_s))
    exact_s = min(e for e, _b in pairs)
    batch_s = min(b for _e, b in pairs)
    return {
        "engine_exact_accesses_per_sec": len(accesses) / exact_s,
        "engine_batch_accesses_per_sec": len(accesses) / batch_s,
        "engine_batch_replay_events_per_sec": result.events / batch_s,
        "engine_batch_speedup_vs_exact": statistics.median(e / b for e, b in pairs),
    }


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------
def run_suite(quick: bool = False, repeats: int = 3) -> Dict[str, Any]:
    """Run every hot-path benchmark; returns the result document.

    The document is tagged with the exact engine's fingerprint: the
    kernel/array/tracer/e2e metrics execute the event kernel, and its
    ``native`` flag records whether a native build backed them.  The
    batch engine's throughput is reported by the ``engine_batch_*``
    metrics instead.
    """
    from ..engines import get_engine

    scale = 1 if quick else 5
    n_kernel = 40_000 * scale
    n_array = 80_000 * scale
    n_tracer = 120_000 * scale
    n_engine = 1_000 * scale
    # The e2e workload is FIXED across quick/full: it is a wall time, so
    # a quick run must stay comparable to a committed full-mode baseline
    # (the rate metrics are size-independent; a shrunk wall time is not).
    e2e_iters = 20

    metrics = {
        "kernel_events_per_sec": n_kernel / _best_of(repeats, lambda: _kernel_zero_delay(n_kernel)),
        "kernel_timeout_events_per_sec": n_kernel / _best_of(repeats, lambda: _kernel_timeouts(n_kernel)),
        "array_lookups_per_sec": n_array / _best_of(repeats, lambda: _array_lookups(n_array)),
        "tracer_disabled_emits_per_sec": n_tracer / _best_of(repeats, lambda: _tracer_disabled_emits(n_tracer)),
        "table2_e2e_seconds": _best_of(repeats, lambda: _table2_e2e(e2e_iters)),
    }
    metrics.update(_engine_metrics(n_engine, repeats))
    return {
        "schema": 2,
        "suite": "hotpath",
        "quick": bool(quick),
        "python": sys.version.split()[0],
        "impl": _platform.python_implementation(),
        "engine": get_engine("exact").fingerprint(),
        "params": {
            "kernel_events": n_kernel,
            "array_lookups": n_array,
            "tracer_emits": n_tracer,
            "engine_accesses": n_engine,
            "table2_iterations": e2e_iters,
            "repeats": repeats,
        },
        "metrics": {
            k: round(v, 6 if k in TIME_METRICS else 2)
            for k, v in metrics.items()
        },
    }


def batch_faster(document: Dict[str, Any]) -> List[str]:
    """The batch engine must outrun the exact one on the reference
    workload (it exists to be the fast path)."""
    speedup = document["metrics"]["engine_batch_speedup_vs_exact"]
    if speedup > 1:
        return []
    return [f"engine_batch_speedup_vs_exact {speedup:.2f}: the batch "
            "engine must be faster than the exact one"]


SUITE = BenchSuite(
    name="hotpath",
    bench_file="BENCH_hotpath.json",
    run=run_suite,
    rows="metrics",
    key=("metric",),
    checks={
        **{metric: {"value": RATE} for metric in RATE_METRICS},
        **{metric: {"value": TIME} for metric in TIME_METRICS},
    },
    columns=("value",),
    tolerance=0.25,
    options=("repeats",),
    previous=("metrics", "python", "impl", "engine", "quick"),
    invariants=batch_faster,
)
