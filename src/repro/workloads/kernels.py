"""Application kernels: realistic multi-processor programs on the API.

Three classic shared-memory kernels, each generated as assembly for an
arbitrary processor count and runnable under any coherence solution:

* :func:`run_reduction` — parallel array sum: each task sums its chunk
  of a shared array, publishes a partial, and task 0 combines them
  after a barrier.
* :func:`run_jacobi` — 1-D Jacobi relaxation: barrier-separated sweeps
  over a shared vector, with cross-cache traffic at partition
  boundaries (each task reads its neighbours' halo cells).
* :func:`run_token_ring` — message-passing latency: a token circulates
  through per-task uncached mailboxes; reports ns per hop.

All three verify their numeric result against a Python reference, so
running them *is* a coherence test; the software-solution variants show
where manual drain/invalidate calls must go in real code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.platform import LOCK_BASE, SHARED_BASE, Platform, PlatformConfig
from ..core.snoop_logic import append_isr
from ..cpu.assembler import Assembler, Program
from ..cpu.presets import CoreConfig, preset_generic
from ..errors import ConfigError
from ..sync.barrier import SenseBarrier
from ..sync.software_coherence import emit_drain_block, emit_invalidate_block

__all__ = ["KernelResult", "run_reduction", "run_jacobi", "run_token_ring"]

_BARRIER = LOCK_BASE
_ARRAY = SHARED_BASE
_PARTIALS = SHARED_BASE + 0x8000
_RESULT = SHARED_BASE + 0x9000
_MAILBOXES = LOCK_BASE + 0x100     # uncached token mailboxes
LINE_BYTES = 32


@dataclass
class KernelResult:
    """Outcome of one kernel run."""

    elapsed_ns: int
    value: int
    expected: int
    stats: Dict[str, int]
    platform: Optional[Platform] = None

    @property
    def correct(self) -> bool:
        """True when the computed result matches the reference."""
        return self.value == self.expected


def _default_cores(n: int) -> Sequence[CoreConfig]:
    return tuple(preset_generic(f"p{i}", "MESI") for i in range(n))


def _build_platform(n_cores, solution, cores=None) -> Platform:
    if solution not in ("disabled", "software", "proposed"):
        raise ConfigError(f"unknown solution {solution!r}")
    cores = tuple(cores) if cores is not None else _default_cores(n_cores)
    return Platform(
        PlatformConfig(
            cores=cores,
            hardware_coherence=(solution == "proposed"),
            shared_cacheable=(solution != "disabled"),
        )
    )


def _finish(asm: Assembler, platform: Platform, index: int) -> Program:
    asm.halt()
    if platform.snoop_logics[index] is not None:
        append_isr(asm, platform.mailbox_base(index))
    return asm.assemble()


def _read_result(platform: Platform, addr: int) -> int:
    """Read a shared word through a controller (caches may be warm)."""
    controller = platform.controllers[0]

    def reader():
        value = yield from controller.read(addr)
        return value

    proc = platform.sim.process(reader())
    platform.sim.run(detect_deadlock=False)
    return proc.value


# ---------------------------------------------------------------------------
# parallel reduction
# ---------------------------------------------------------------------------
def run_reduction(
    n_cores: int = 2,
    n_words: int = 64,
    solution: str = "proposed",
    cores: Optional[Sequence[CoreConfig]] = None,
    keep_platform: bool = False,
) -> KernelResult:
    """Sum ``n_words`` shared words across ``n_cores`` processors."""
    if n_words % n_cores:
        raise ConfigError("n_words must divide evenly across cores")
    platform = _build_platform(n_cores, solution, cores)
    data = [(i * 7 + 3) & 0xFFFF for i in range(n_words)]
    platform.memory.load(_ARRAY, data)
    chunk = n_words // n_cores
    barriers = [SenseBarrier(_BARRIER, n_cores) for _ in range(n_cores)]

    programs = {}
    for index in range(n_cores):
        asm = Assembler(name=f"reduce{index}")
        barrier = barriers[index]
        barrier.emit_init(asm)
        base = _ARRAY + 4 * index * chunk
        asm.li(1, base)
        asm.li(2, chunk)
        asm.li(3, 0)
        asm.label("sum")
        asm.ld(4, 1)
        asm.add(3, 3, 4)
        asm.addi(1, 1, 4)
        asm.subi(2, 2, 1)
        asm.bne(2, 0, "sum")
        # Publish my partial.  Partials are padded to one cache line
        # per task: without snooping hardware, two tasks write-allocating
        # the same line clobber each other's drained values (false
        # sharing) — a classic software-coherence pitfall this kernel's
        # tests originally caught live.
        asm.li(1, _PARTIALS + LINE_BYTES * index)
        asm.st(3, 1)
        if solution == "software":
            asm.dcbf(1)
            asm.sync()
        barrier.emit_wait(asm)
        if index == 0:
            # combine: partials live in other caches / memory
            if solution == "software":
                emit_invalidate_block(
                    asm, _PARTIALS, n_cores, LINE_BYTES, label_stem="inv",
                )
            asm.li(1, _PARTIALS)
            asm.li(2, n_cores)
            asm.li(3, 0)
            asm.label("combine")
            asm.ld(4, 1)
            asm.add(3, 3, 4)
            asm.addi(1, 1, LINE_BYTES)
            asm.subi(2, 2, 1)
            asm.bne(2, 0, "combine")
            asm.li(1, _RESULT)
            asm.st(3, 1)
            if solution == "software":
                asm.dcbf(1)
                asm.sync()
        programs[platform.config.cores[index].name] = _finish(asm, platform, index)
    platform.load_programs(programs)
    elapsed = platform.run()
    value = _read_result(platform, _RESULT)
    return KernelResult(
        elapsed_ns=elapsed,
        value=value,
        expected=sum(data) & 0xFFFFFFFF,
        stats=platform.stats.as_dict(),
        platform=platform if keep_platform else None,
    )


# ---------------------------------------------------------------------------
# 1-D Jacobi relaxation
# ---------------------------------------------------------------------------
def run_jacobi(
    n_cores: int = 2,
    n_cells: int = 32,
    sweeps: int = 4,
    solution: str = "proposed",
    cores: Optional[Sequence[CoreConfig]] = None,
) -> KernelResult:
    """Barrier-separated sweeps of ``x[i] = (x[i-1] + x[i+1]) / 2``.

    Uses two shared buffers (ping/pong).  Division by two is a shift;
    all arithmetic stays integral.  Interior cells only; the two
    boundary cells are fixed.
    """
    if n_cells % n_cores:
        raise ConfigError("n_cells must divide evenly across cores")
    chunk_bytes = 4 * (n_cells // n_cores)
    if solution == "software" and chunk_bytes % LINE_BYTES:
        raise ConfigError(
            "software coherence requires line-aligned partitions "
            f"(chunk of {chunk_bytes} bytes vs {LINE_BYTES}-byte lines): "
            "unaligned chunks false-share boundary lines"
        )
    platform = _build_platform(n_cores, solution, cores)
    src_base = _ARRAY
    dst_base = _ARRAY + 4 * n_cells
    initial = [0] * n_cells
    initial[0] = 1024
    initial[-1] = 1024
    platform.memory.load(src_base, initial)
    platform.memory.load(dst_base, initial)
    chunk = n_cells // n_cores
    barriers = [SenseBarrier(_BARRIER, n_cores) for _ in range(n_cores)]
    buffer_words = 2 * n_cells
    buffer_lines = (4 * buffer_words + LINE_BYTES - 1) // LINE_BYTES

    programs = {}
    for index in range(n_cores):
        asm = Assembler(name=f"jacobi{index}")
        barriers[index].emit_init(asm)
        for sweep in range(sweeps):
            source = src_base if sweep % 2 == 0 else dst_base
            dest = dst_base if sweep % 2 == 0 else src_base
            if solution == "software":
                # Discard stale copies of both buffers before reading.
                emit_invalidate_block(
                    asm, _ARRAY, buffer_lines, LINE_BYTES,
                    label_stem=f"inv{index}_{sweep}",
                )
            lo = max(1, index * chunk)
            hi = min(n_cells - 1, (index + 1) * chunk)
            for cell in range(lo, hi):
                asm.li(1, source + 4 * (cell - 1))
                asm.ld(2, 1)
                asm.ld(3, 1, 8)
                asm.add(2, 2, 3)
                asm.shr(2, 2, 1)
                asm.li(1, dest + 4 * cell)
                asm.st(2, 1)
            if solution == "software":
                emit_drain_block(
                    asm, _ARRAY, buffer_lines, LINE_BYTES,
                    label_stem=f"drain{index}_{sweep}",
                )
            barriers[index].emit_wait(asm)
        programs[platform.config.cores[index].name] = _finish(asm, platform, index)
    platform.load_programs(programs)
    elapsed = platform.run()

    # Python reference.
    ref_src, ref_dst = list(initial), list(initial)
    for _sweep in range(sweeps):
        for cell in range(1, n_cells - 1):
            ref_dst[cell] = (ref_src[cell - 1] + ref_src[cell + 1]) // 2
        ref_src, ref_dst = ref_dst, ref_src
    final_base = src_base if sweeps % 2 == 0 else dst_base
    # Probe near the boundary, where the diffusion front arrives first
    # (the centre stays zero for small sweep counts).
    probe = min(2, n_cells - 2)
    value = _read_result(platform, final_base + 4 * probe)
    return KernelResult(
        elapsed_ns=elapsed,
        value=value,
        expected=ref_src[probe],
        stats=platform.stats.as_dict(),
    )


# ---------------------------------------------------------------------------
# token ring
# ---------------------------------------------------------------------------
def run_token_ring(
    n_cores: int = 3,
    laps: int = 4,
    solution: str = "proposed",
    cores: Optional[Sequence[CoreConfig]] = None,
) -> KernelResult:
    """Pass a counter token around the ring ``laps`` times.

    Mailboxes are uncached (message-passing over the bus); the token
    value increments at each hop, so the final value counts hops.
    """
    platform = _build_platform(n_cores, solution, cores)
    programs = {}
    hops = n_cores * laps
    for index in range(n_cores):
        asm = Assembler(name=f"ring{index}")
        my_box = _MAILBOXES + 4 * index
        next_box = _MAILBOXES + 4 * ((index + 1) % n_cores)
        asm.li(1, my_box)
        asm.li(2, next_box)
        for lap in range(laps):
            if index == 0 and lap == 0:
                asm.li(3, 1)          # originate the token (value 1)
            else:
                # Token value delivered to (index, lap): hops so far + 1.
                asm.li(4, lap * n_cores + index + 1)
                asm.label(f"wait_{lap}")
                asm.delay(4)
                asm.ld(3, 1)
                asm.bne(3, 4, f"wait_{lap}")
            asm.addi(3, 3, 1)
            asm.st(3, 2)              # pass it on, incremented
        asm.halt()
        programs[platform.config.cores[index].name] = asm.assemble()
    # Token math: box values are hop counters; the final delivery back
    # to box 0 after `laps` laps carries n_cores*laps (+1 origination).
    platform.load_programs(programs)
    elapsed = platform.run()
    value = platform.memory.peek(_MAILBOXES)  # uncached: host-visible
    return KernelResult(
        elapsed_ns=elapsed,
        value=value,
        expected=hops + 1,
        stats=platform.stats.as_dict(),
    )
