"""The fault matrix: one entry per fault class, with its expected fate.

Each :class:`MatrixEntry` arms one :class:`FaultSpec` against a
contended WCS microbenchmark (small caches so evictions happen, fast
watchdog thresholds, a low ARTRY ceiling) and asserts how the fault is
caught:

* ``watchdog`` — the run aborts with a diagnostic report (deadlock or
  livelock detected by the progress watchdog);
* ``retry-ceiling`` — the bus's bounded-retry monitor raises
  :class:`~repro.errors.LivelockError` on the spinning transaction;
* ``checker`` — the run completes but the
  :class:`~repro.verify.CoherenceChecker` records violations (stale
  reads / illegal state combinations);
* ``benign`` — the run completes cleanly, merely slower; the entry's
  rationale documents why no detector should fire.

A run that hits the ``max_events`` backstop without any detector firing
is classified ``missed`` — the outcome the subsystem exists to prevent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.platform import SHARED_BASE
from ..cpu.presets import preset_arm920t, preset_powerpc755
from ..errors import DeadlockError, LivelockError, SimulationError
from ..verify.checker import CoherenceChecker
from ..workloads.microbench import MicrobenchSpec, build_programs, make_platform
from .spec import FaultSpec
from .watchdog import WatchdogConfig

__all__ = [
    "MatrixEntry",
    "MatrixResult",
    "default_matrix",
    "run_matrix",
    "render_results",
    "results_to_json",
]

#: watchdog tuned for the small matrix workload (fast abort, full dump)
MATRIX_WATCHDOG = WatchdogConfig(
    check_interval_ns=5_000, stall_threshold_ns=60_000, dump_records=24
)
#: low ARTRY ceiling so retry storms trip it well before the watchdog
MATRIX_MAX_RETRIES = 300
#: hard backstop: hitting this without a detector firing == "missed"
MATRIX_MAX_EVENTS = 3_000_000


@dataclass(frozen=True)
class MatrixEntry:
    """One fault class under test: the spec, its fate, and why."""

    name: str
    spec: FaultSpec
    #: "watchdog" | "retry-ceiling" | "checker" | "benign"
    expected: str
    rationale: str


@dataclass
class MatrixResult:
    """What actually happened when the entry ran."""

    entry: MatrixEntry
    outcome: str
    detail: str
    fires: int
    elapsed_ns: Optional[int] = None
    violations: int = 0
    #: full watchdog dump, when one was produced
    dump: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the outcome matches the entry's expectation."""
        return self.outcome == self.entry.expected


def default_matrix() -> Tuple[MatrixEntry, ...]:
    """The shipped matrix: every registered fault site, classified."""
    return (
        MatrixEntry(
            name="drain-drop",
            spec=FaultSpec("drain.drop", master="ppc755", count=1),
            expected="watchdog",
            rationale="the backed-off master waits on a completion that "
            "never fires; its heartbeat goes flat",
        ),
        MatrixEntry(
            name="drain-delay",
            spec=FaultSpec("drain.delay", master="ppc755", delay_ns=5_000, count=None),
            expected="benign",
            rationale="the completion still arrives, 5us late — strictly a "
            "timing perturbation, under the stall threshold",
        ),
        MatrixEntry(
            name="snoop-silent",
            spec=FaultSpec("snoop.silent", master="ppc755", addr=SHARED_BASE, count=None),
            expected="checker",
            rationale="a missed address compare lets reads bypass the dirty "
            "owner: the run completes but reads are stale",
        ),
        MatrixEntry(
            name="retry-storm",
            spec=FaultSpec("retry.storm", master="ppc755", count=None),
            expected="retry-ceiling",
            rationale="every ARTRY completes instantly so the victim "
            "re-arbitrates forever; the bounded-retry monitor "
            "trips long before the watchdog",
        ),
        MatrixEntry(
            name="fiq-lose",
            spec=FaultSpec("fiq.lose", master="arm920t", count=None),
            expected="watchdog",
            rationale="the snoop-service ISR never runs, so the requester "
            "waits forever on the drain while the ARM spins on",
        ),
        MatrixEntry(
            name="fiq-delay",
            spec=FaultSpec("fiq.delay", master="arm920t", delay_ns=2_000, count=None),
            expected="benign",
            rationale="the ISR runs 2us late; drains complete under the "
            "stall threshold",
        ),
        MatrixEntry(
            name="cam-stale",
            spec=FaultSpec("cam.stale", master="arm920t", count=1),
            expected="watchdog",
            rationale="a snoop hit on the stale tag queues a service "
            "request no DCBF can satisfy; the requester wedges "
            "and the ARM spins in its ISR",
        ),
        MatrixEntry(
            name="arbiter-starve",
            spec=FaultSpec("arbiter.starve", master="ppc755", after_n=4, count=None),
            expected="watchdog",
            rationale="the starved master never gets a grant; its heartbeat "
            "goes flat while the other master keeps running",
        ),
        MatrixEntry(
            name="mem-delay",
            spec=FaultSpec(
                "mem.delay", probability=0.25, count=None, extra_cycles=200, seed=7
            ),
            expected="benign",
            rationale="slow DRAM stretches data phases by 4us a quarter of "
            "the time; everything still completes",
        ),
    )


def _matrix_workload() -> MicrobenchSpec:
    # Contended WCS: both masters hammer one 24-line block.  24 lines
    # overflow the shrunken ARM cache (16 direct-mapped sets below), so
    # evictions happen and cam.stale has occasions to fire.
    return MicrobenchSpec(scenario="wcs", solution="proposed", lines=24,
                          exec_time=1, iterations=3)


def _matrix_cores():
    return (
        preset_powerpc755().with_(cache_size=1024, cache_ways=2),
        preset_arm920t().with_(cache_size=512, cache_ways=1),
    )


def run_entry(
    entry: Optional[MatrixEntry],
    max_events: int = MATRIX_MAX_EVENTS,
    fabric: str = "atomic",
) -> MatrixResult:
    """Run the matrix workload with ``entry``'s fault armed on ``fabric``.

    Pass ``entry=None`` for the fault-free baseline (always expected
    benign — used to sanity-check the workload and to size the benign
    entries' slowdowns).
    """
    if entry is None:
        entry = MatrixEntry(
            name="baseline", spec=FaultSpec("mem.delay", extra_cycles=1,
                                            probability=0.0),
            expected="not-triggered",
            rationale="armed but never firing (p=0): the workload itself "
            "must complete with no detector going off",
        )
    spec = _matrix_workload()
    platform = make_platform(
        spec,
        cores=_matrix_cores(),
        watchdog=MATRIX_WATCHDOG,
        max_bus_retries=MATRIX_MAX_RETRIES,
        trace_channels=("bus", "irq"),
        trace_capacity=256,
        faults=(entry.spec,),
        fabric=fabric,
    )
    checker = CoherenceChecker(platform)
    platform.load_programs(build_programs(spec, platform))
    engine = platform.fault_engine
    try:
        elapsed = platform.run(max_events=max_events)
    except DeadlockError as exc:
        return MatrixResult(
            entry=entry,
            outcome="watchdog" if exc.report is not None else "kernel-queue",
            detail=str(exc),
            fires=engine.total_fires,
            dump=exc.report.render() if exc.report is not None else None,
        )
    except LivelockError as exc:
        if exc.report is not None:
            return MatrixResult(
                entry=entry, outcome="watchdog", detail=str(exc),
                fires=engine.total_fires, dump=exc.report.render(),
            )
        return MatrixResult(
            entry=entry, outcome="retry-ceiling", detail=str(exc),
            fires=engine.total_fires,
        )
    except SimulationError as exc:
        # max_events backstop (or an unexpected kernel error): the fault
        # hung the system and nothing diagnosed it.
        return MatrixResult(
            entry=entry, outcome="missed", detail=str(exc),
            fires=engine.total_fires,
            dump=platform.watchdog.build_report("missed").render(),
        )
    checker.check_all_lines()
    if not checker.clean:
        return MatrixResult(
            entry=entry,
            outcome="checker",
            detail=f"{len(checker.violations)} violation(s); first: "
            + str(checker.violations[0]),
            fires=engine.total_fires,
            elapsed_ns=elapsed,
            violations=len(checker.violations),
        )
    if engine.total_fires == 0:
        return MatrixResult(
            entry=entry, outcome="not-triggered",
            detail="fault never fired — matrix workload gives it no occasion",
            fires=0, elapsed_ns=elapsed,
        )
    return MatrixResult(
        entry=entry, outcome="benign",
        detail=f"completed cleanly in {elapsed} ns "
        f"({engine.total_fires} injection(s))",
        fires=engine.total_fires, elapsed_ns=elapsed,
    )


def run_matrix(
    entries: Optional[Sequence[MatrixEntry]] = None,
    max_events: int = MATRIX_MAX_EVENTS,
    fabric: str = "atomic",
) -> List[MatrixResult]:
    """Run every entry (default: the shipped matrix), baseline first."""
    results = [run_entry(None, max_events=max_events, fabric=fabric)]
    for entry in entries if entries is not None else default_matrix():
        results.append(run_entry(entry, max_events=max_events, fabric=fabric))
    return results


def render_results(results: Sequence[MatrixResult]) -> str:
    """Human-readable table plus per-entry detail lines."""
    lines = [
        f"{'entry':<16} {'expected':<14} {'outcome':<14} {'fires':>5}  detail",
        "-" * 100,
    ]
    for result in results:
        mark = "ok" if result.ok else "MISMATCH"
        lines.append(
            f"{result.entry.name:<16} {result.entry.expected:<14} "
            f"{result.outcome:<14} {result.fires:>5}  "
            f"[{mark}] {result.detail[:120]}"
        )
    failed = [r for r in results if not r.ok]
    lines.append("-" * 100)
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} entries match their "
        "expected classification"
    )
    return "\n".join(lines)


def results_to_json(results: Sequence[MatrixResult]) -> str:
    """JSON dump (CI artifact): specs, outcomes, and watchdog reports."""
    payload = [
        {
            "name": r.entry.name,
            "spec": r.entry.spec.describe(),
            "expected": r.entry.expected,
            "rationale": r.entry.rationale,
            "outcome": r.outcome,
            "ok": r.ok,
            "fires": r.fires,
            "elapsed_ns": r.elapsed_ns,
            "violations": r.violations,
            "detail": r.detail,
            "dump": r.dump,
        }
        for r in results
    ]
    return json.dumps(payload, indent=2)
