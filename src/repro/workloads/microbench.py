"""The WCS / TCS / BCS microbenchmarks (Section 4).

One task runs on each processor.  A task repeatedly enters a critical
section protected by an uncached lock, and inside it performs
``exec_time`` passes over a block of ``lines`` cache lines, reading and
read-modify-writing one word per line (plus optional modelled compute).

Scenarios:

* **WCS** (worst case) — both tasks hammer the *same* block, acquiring
  the lock in strict alternation (a :class:`~repro.sync.TurnLock`), so
  every shared line crosses caches on every tenure.
* **BCS** (best case) — only the second processor (the ARM920T in the
  paper's platform) enters the critical section; the first halts
  immediately.  Nothing ever snoop-hits, so the proposed solution keeps
  the block cached across tenures while the software solution drains
  and refetches it every time.
* **TCS** (typical case) — each task picks one of ``tcs_blocks`` blocks
  uniformly at random before each entry, giving probabilistic overlap.

Solutions (the three configurations of Table 4):

* ``disabled`` — the shared region is uncacheable; every access goes to
  the bus.
* ``software`` — shared data is cached, no snooping hardware exists,
  and each task drains the block it used before releasing the lock
  (:func:`~repro.sync.emit_drain_block`).
* ``proposed`` — shared data is cached and the paper's wrappers plus
  snoop logic maintain coherence in hardware.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.platform import (
    LOCK_BASE,
    LOCKREG_BASE,
    SHARED_BASE,
    SHARED_SIZE,
    Platform,
    PlatformConfig,
)
from ..core.snoop_logic import append_isr
from ..cpu.assembler import Assembler, Program
from ..cpu.presets import CoreConfig, preset_arm920t, preset_powerpc755
from ..errors import ConfigError
from ..mem.controller import MemoryTiming
from ..sync.locks import BakeryLock, HwLock, Lock, SwapLock, TurnLock
from ..sync.software_coherence import emit_drain_block

__all__ = [
    "SCENARIOS",
    "SOLUTIONS",
    "MicrobenchSpec",
    "MicrobenchResult",
    "default_cores",
    "make_platform",
    "build_programs",
    "run_microbench",
]

SCENARIOS = ("wcs", "tcs", "bcs")
SOLUTIONS = ("disabled", "software", "proposed")


@dataclass(frozen=True)
class MicrobenchSpec:
    """Parameters of one microbenchmark run."""

    scenario: str = "wcs"
    solution: str = "proposed"
    #: cache lines accessed per pass ("# of accessed cache lines")
    lines: int = 8
    #: passes over the block per lock tenure (the paper's exec_time)
    exec_time: int = 1
    #: lock tenures per task
    iterations: int = 8
    #: block population for TCS random selection
    tcs_blocks: int = 10
    seed: int = 42
    #: modelled compute cycles added per line access
    work_cycles: int = 0
    #: words read-modify-written per line (None = the whole line)
    words_per_line: Optional[int] = None
    #: lock kind: turn | swap | hw | bakery (scenario default when None)
    lock: Optional[str] = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.solution not in SOLUTIONS:
            raise ConfigError(f"unknown solution {self.solution!r}")
        if self.lines < 1 or self.exec_time < 1 or self.iterations < 1:
            raise ConfigError("lines, exec_time and iterations must be >= 1")
        if self.scenario == "bcs" and (self.lock or "swap") == "turn":
            raise ConfigError("BCS has a single lock user; a TurnLock never hands over")
        if self.words_per_line is not None and self.words_per_line < 1:
            raise ConfigError("words_per_line must be >= 1")

    @property
    def lock_kind(self) -> str:
        """The effective lock implementation."""
        if self.lock is not None:
            return self.lock
        return "turn" if self.scenario == "wcs" else "swap"

    def with_(self, **changes) -> "MicrobenchSpec":
        """A modified copy."""
        return replace(self, **changes)


@dataclass
class MicrobenchResult:
    """Outcome of one run: the headline time plus counter snapshots."""

    spec: MicrobenchSpec
    elapsed_ns: int
    stats: Dict[str, int]
    isr_entries: int
    platform: Optional[Platform] = None

    @property
    def elapsed_us(self) -> float:
        """Completion time in microseconds."""
        return self.elapsed_ns / 1000.0


def default_cores() -> Tuple[CoreConfig, CoreConfig]:
    """The paper's PF2 evaluation platform: PowerPC755 + ARM920T."""
    return (preset_powerpc755(), preset_arm920t())


def make_platform(
    spec: MicrobenchSpec,
    cores: Optional[Sequence[CoreConfig]] = None,
    memory_timing: Optional[MemoryTiming] = None,
    **overrides,
) -> Platform:
    """Build the platform matching ``spec``'s coherence solution."""
    cores = tuple(cores) if cores is not None else default_cores()
    config = PlatformConfig(
        cores=cores,
        hardware_coherence=(spec.solution == "proposed"),
        shared_cacheable=(spec.solution != "disabled"),
        memory_timing=memory_timing,
        lock_register=(spec.lock_kind == "hw"),
        **overrides,
    )
    return Platform(config)


def _make_lock(spec: MicrobenchSpec, n_tasks: int) -> Lock:
    kind = spec.lock_kind
    if kind == "turn":
        return TurnLock(LOCK_BASE, n_tasks=n_tasks)
    if kind == "swap":
        return SwapLock(LOCK_BASE)
    if kind == "hw":
        return HwLock(LOCKREG_BASE)
    if kind == "bakery":
        return BakeryLock(LOCK_BASE + 0x40, n_tasks=n_tasks)
    raise ConfigError(f"unknown lock kind {kind!r}")


def _block_base(block: int, spec: MicrobenchSpec, line_bytes: int) -> int:
    return SHARED_BASE + block * spec.lines * line_bytes


def _block_schedule(
    spec: MicrobenchSpec, task_id: int, line_bytes: int
) -> List[int]:
    """Block base address per iteration for one task."""
    if spec.scenario in ("wcs", "bcs"):
        return [_block_base(0, spec, line_bytes)] * spec.iterations
    footprint = spec.tcs_blocks * spec.lines * line_bytes
    if footprint > SHARED_SIZE:
        raise ConfigError(
            f"TCS footprint {footprint} exceeds the shared region ({SHARED_SIZE})"
        )
    rng = random.Random(spec.seed * 1000003 + task_id)
    return [
        _block_base(rng.randrange(spec.tcs_blocks), spec, line_bytes)
        for _ in range(spec.iterations)
    ]


def _emit_task(
    asm: Assembler,
    spec: MicrobenchSpec,
    task_id: int,
    lock: Lock,
    line_bytes: int,
    blocks: Sequence[int],
) -> None:
    """The critical-section loop of one task (unrolled per iteration)."""
    words = spec.words_per_line or (line_bytes // 4)
    for iteration, block_base in enumerate(blocks):
        tag = f"{task_id}_{iteration}"
        lock.emit_acquire(asm, task_id)
        asm.li(5, spec.exec_time)
        asm.label(f"_pass_{tag}")
        asm.li(2, block_base)
        asm.li(3, spec.lines)
        asm.label(f"_line_{tag}")
        # Read-modify-write `words` words of the line.
        asm.mov(7, 2)
        asm.li(6, words)
        asm.label(f"_word_{tag}")
        asm.ld(4, 7)
        asm.addi(4, 4, 1)
        asm.st(4, 7)
        asm.addi(7, 7, 4)
        asm.subi(6, 6, 1)
        asm.bne(6, 0, f"_word_{tag}")
        if spec.work_cycles:
            asm.delay(spec.work_cycles)
        asm.addi(2, 2, line_bytes)
        asm.subi(3, 3, 1)
        asm.bne(3, 0, f"_line_{tag}")
        asm.subi(5, 5, 1)
        asm.bne(5, 0, f"_pass_{tag}")
        if spec.solution == "software":
            # Drain the used block before giving up the lock.
            emit_drain_block(
                asm, block_base, spec.lines, line_bytes,
                label_stem=f"drain_{tag}",
            )
        lock.emit_release(asm, task_id)
    asm.halt()


def build_programs(
    spec: MicrobenchSpec, platform: Platform
) -> Dict[str, Program]:
    """One program per core, ISRs included where the platform needs them."""
    line_bytes = platform.config.line_bytes
    names = [cfg.name for cfg in platform.config.cores]
    n_tasks = 2 if spec.scenario != "bcs" else 2  # lock ids stay stable
    lock = _make_lock(spec, n_tasks=max(2, len(names)))
    programs: Dict[str, Program] = {}
    for index, name in enumerate(names):
        asm = Assembler(name=f"{spec.scenario}-{name}")
        runs_cs = not (spec.scenario == "bcs" and index != 1)
        if runs_cs:
            _emit_task(
                asm, spec, task_id=index, lock=lock,
                line_bytes=line_bytes,
                blocks=_block_schedule(spec, index, line_bytes),
            )
        else:
            asm.halt()
        if platform.snoop_logics[index] is not None:
            append_isr(asm, platform.mailbox_base(index))
        programs[name] = asm.assemble()
    return programs


def run_microbench(
    spec: MicrobenchSpec,
    cores: Optional[Sequence[CoreConfig]] = None,
    memory_timing: Optional[MemoryTiming] = None,
    keep_platform: bool = False,
    check: bool = False,
    max_events: Optional[int] = None,
    **platform_overrides,
) -> MicrobenchResult:
    """Build, load and run one microbenchmark configuration."""
    platform = make_platform(spec, cores, memory_timing, **platform_overrides)
    checker = None
    if check:
        from ..verify.checker import CoherenceChecker

        checker = CoherenceChecker(platform)
    programs = build_programs(spec, platform)
    platform.load_programs(programs)
    elapsed = platform.run(max_events=max_events)
    if checker is not None:
        checker.check_all_lines()
        checker.raise_if_violations()
    isr_entries = sum(core.isr_entries for core in platform.cores)
    return MicrobenchResult(
        spec=spec,
        elapsed_ns=elapsed,
        stats=platform.stats.as_dict(),
        isr_entries=isr_entries,
        platform=platform if keep_platform else None,
    )
