"""Ablation studies for the design choices DESIGN.md calls out.

* :func:`ablation_wrapper` — wrappers on/off on mismatched-protocol
  pairs (the live version of Tables 2/3: stale reads and invariant
  violations appear exactly when the wrapper is off).
* :func:`ablation_locks` — lock implementation (uncached spinlock,
  Bakery, hardware lock register) under the TCS workload.
* :func:`ablation_interrupt` — sensitivity of the proposed solution to
  the ARM's interrupt response/entry cost (the PF2-vs-PF3 discussion:
  "platforms without need for a special ISR would perform even better").
* :func:`ablation_arbitration` — fixed-priority vs round-robin bus
  arbitration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..exp import MicrobenchJob, SequenceJob, SweepRunner, run_jobs
from ..workloads.microbench import MicrobenchSpec

__all__ = [
    "AblationRow",
    "ablation_wrapper",
    "ablation_locks",
    "ablation_interrupt",
    "ablation_arbitration",
]


@dataclass
class AblationRow:
    """One configuration and its measured outcome."""

    label: str
    value: float
    unit: str


def ablation_wrapper(
    pairs: Sequence[Tuple[str, str]] = (("MESI", "MEI"), ("MSI", "MESI"), ("MESI", "MOESI")),
    runner: Optional[SweepRunner] = None,
) -> List[AblationRow]:
    """Stale reads with and without the wrapper, per protocol pair."""
    jobs = [
        SequenceJob(tuple(pair), wrapped=wrapped)
        for pair in pairs
        for wrapped in (False, True)
    ]
    rows = []
    for job, result in zip(jobs, run_jobs(jobs, runner)):
        mode = "wrapped" if job.wrapped else "unwrapped"
        rows.append(
            AblationRow(
                f"{job.protocols[0]}+{job.protocols[1]} {mode}: stale reads",
                result["stale_reads"], "reads",
            )
        )
    return rows


def ablation_locks(
    kinds: Sequence[str] = ("swap", "bakery", "hw"),
    lines: int = 8,
    iterations: int = 8,
    runner: Optional[SweepRunner] = None,
) -> List[AblationRow]:
    """TCS execution time per lock implementation (proposed solution)."""
    jobs = [
        MicrobenchJob(
            MicrobenchSpec("tcs", "proposed", lines=lines, iterations=iterations, lock=kind)
        )
        for kind in kinds
    ]
    return [
        AblationRow(f"TCS proposed, {kind} lock", result["elapsed_ns"], "ns")
        for kind, result in zip(kinds, run_jobs(jobs, runner))
    ]


def ablation_interrupt(
    entry_cycles: Sequence[int] = (1, 4, 8, 16),
    lines: int = 8,
    iterations: int = 8,
    runner: Optional[SweepRunner] = None,
) -> List[AblationRow]:
    """WCS proposed execution time vs ARM interrupt entry cost."""
    spec = MicrobenchSpec("wcs", "proposed", lines=lines, iterations=iterations)
    jobs = [
        MicrobenchJob(spec, arm_interrupt_entry_cycles=cycles)
        for cycles in entry_cycles
    ]
    return [
        AblationRow(
            f"WCS proposed, interrupt entry = {cycles} cycles",
            result["elapsed_ns"], "ns",
        )
        for cycles, result in zip(entry_cycles, run_jobs(jobs, runner))
    ]


def ablation_arbitration(
    lines: int = 8,
    iterations: int = 8,
    runner: Optional[SweepRunner] = None,
) -> List[AblationRow]:
    """WCS execution time under both arbitration policies."""
    policies = ("fixed", "round-robin")
    spec = MicrobenchSpec("wcs", "proposed", lines=lines, iterations=iterations)
    jobs = [MicrobenchJob(spec, arbitration=policy) for policy in policies]
    return [
        AblationRow(f"WCS proposed, {policy} arbitration", result["elapsed_ns"], "ns")
        for policy, result in zip(policies, run_jobs(jobs, runner))
    ]
