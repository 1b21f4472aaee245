"""The in-order scalar core.

Executes :class:`~repro.cpu.assembler.Program` objects one instruction
per ``cpi`` core cycles, plus memory time through its data cache.  The
properties the paper's evaluation depends on are modelled explicitly:

* **clock domain** — each core has its own :class:`~repro.sim.Clock`
  (PowerPC755 at 100 MHz vs ARM920T and the bus at 50 MHz, Table 4);
* **interrupt response** — the FIQ line is sampled only at instruction
  boundaries, and no earlier than ``fiq_response_cycles`` after
  assertion ("ARM may or may not respond to the interrupt immediately,
  depending on the status of the CPU pipeline").  A core stalled on a
  backed-off bus access therefore cannot take the interrupt — the
  ingredient of the Fig 4 hardware deadlock;
* **cache management instructions** — DCBF/DCBI/DCBST/SYNC give the
  software coherence solution its cost structure.

A halted core keeps servicing interrupts (its process turns into a
daemon), because in the proposed solution a finished task's dirty lines
must still be drained on demand.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional

from ..bus.types import Priority
from ..cache.controller import CacheController
from ..errors import ExecutionError
from ..sim import Clock, Simulator, Stats, Tracer
from .assembler import Program
from .interrupts import InterruptLine
from .isa import REG_MASK, Instr

__all__ = ["Core"]


class Core:
    """One processor: registers, PC, interrupt state, and a data cache."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        clock: Clock,
        dcache: CacheController,
        cpi: int = 1,
        sync_cycles: int = 3,
        fiq_response_cycles: int = 2,
        fiq_response_jitter_cycles: int = 0,
        interrupt_entry_cycles: int = 4,
        rfi_cycles: int = 2,
        isr_drain_priority: bool = True,
        tracer: Optional[Tracer] = None,
        stats: Optional[Stats] = None,
    ):
        self.name = name
        self.sim = sim
        self.clock = clock
        self.dcache = dcache
        self.cpi = cpi
        self.sync_cycles = sync_cycles
        self.fiq_response_cycles = fiq_response_cycles
        self.fiq_response_jitter_cycles = fiq_response_jitter_cycles
        self._jitter_rng = random.Random(zlib.crc32(name.encode()))
        self._fiq_target: Optional[int] = None
        self._fiq_assert_seen: Optional[int] = None
        self.interrupt_entry_cycles = interrupt_entry_cycles
        self.rfi_cycles = rfi_cycles
        self.isr_drain_priority = isr_drain_priority
        self.tracer = tracer or dcache.tracer
        self.stats = stats or dcache.stats
        self.trace_instructions = False
        # Cached channel guards + interned stat key for the hot paths.
        self._trace_core = self.tracer.channel("core")
        self._trace_irq = self.tracer.channel("irq")
        self._stat_isr_entries = f"{name}.isr_entries"

        self.regs = [0] * 16
        self.pc = 0
        self.program: Optional[Program] = None
        self.halted = False
        self.in_isr = False
        self.interrupts_enabled = True
        self.fiq = InterruptLine(sim, name=f"{name}.nfiq")
        self.done = sim.event()
        self.retired = 0
        #: retires outside ISRs — the watchdog's liveness heartbeat (an
        #: ISR spin keeps `retired` climbing while mainline work is stuck)
        self.mainline_retired = 0
        self.isr_entries = 0
        self.halt_time: Optional[int] = None
        self.process = None
        self._saved_context = None

    # -- setup ---------------------------------------------------------------
    def load_program(self, program: Program) -> None:
        """Install a program and reset architectural state."""
        self.program = program
        self.regs = [0] * 16
        self.pc = 0
        self.halted = False
        self.in_isr = False
        self.interrupts_enabled = True

    def start(self):
        """Spawn the execution process (call after load_program)."""
        if self.program is None:
            raise ExecutionError(f"{self.name}: no program loaded")
        self.process = self.sim.process(self._run(), name=self.name)
        return self.process

    # -- execution loop ---------------------------------------------------------
    def _run(self):
        sim = self.sim
        advance = sim.advance
        fiq = self.fiq
        # Base pipeline occupancy per instruction (a negative cpi raises here)
        delay = self.clock.cycles(self.cpi)
        while True:
            if fiq.asserted and self._fiq_ready():
                yield from self._enter_isr()
                continue
            if self.halted and not self.in_isr:
                # Finished, but stay responsive to snoop-hit interrupts.
                self.process.daemon = True
                if fiq.asserted:
                    yield sim.timeout(self._fiq_wait_remaining())
                else:
                    yield fiq.wait()
                continue
            pc = self.pc
            instrs = self.program.instrs
            if not 0 <= pc < len(instrs):
                raise ExecutionError(
                    f"{self.name}: PC {pc} outside program "
                    f"(0..{len(instrs) - 1})"
                )
            instr = instrs[pc]
            self.pc = pc + 1
            if self.trace_instructions:
                trace = self._trace_core
                if trace.enabled:
                    trace.emit(sim.now, self.name, "exec", pc=pc, instr=instr.render())
            if not advance(delay):
                yield sim.timeout(delay)
            # Loads, stores and ops that never wait run inline.
            op = instr.op
            regs = self.regs
            if op == "LD":
                addr = (regs[instr.ra] + instr.imm) & REG_MASK
                regs[instr.rd] = yield from self.dcache.read(addr)
            elif op == "ST":
                addr = (regs[instr.ra] + instr.imm) & REG_MASK
                yield from self.dcache.write(addr, regs[instr.rb])
            elif op == "ADDI":
                regs[instr.rd] = (regs[instr.ra] + instr.imm) & REG_MASK
            elif op == "SUBI":
                regs[instr.rd] = (regs[instr.ra] - instr.imm) & REG_MASK
            elif op == "BNE":
                if regs[instr.ra] != regs[instr.rb]:
                    self.pc = instr.target
            elif op == "BEQ":
                if regs[instr.ra] == regs[instr.rb]:
                    self.pc = instr.target
            elif op == "LI":
                regs[instr.rd] = instr.imm & REG_MASK
            elif op == "MOV":
                regs[instr.rd] = regs[instr.ra]
            elif op == "ADD":
                regs[instr.rd] = (regs[instr.ra] + regs[instr.rb]) & REG_MASK
            elif op == "SUB":
                regs[instr.rd] = (regs[instr.ra] - regs[instr.rb]) & REG_MASK
            elif op == "AND":
                regs[instr.rd] = regs[instr.ra] & regs[instr.rb]
            elif op == "OR":
                regs[instr.rd] = regs[instr.ra] | regs[instr.rb]
            elif op == "XOR":
                regs[instr.rd] = regs[instr.ra] ^ regs[instr.rb]
            elif op == "MUL":
                regs[instr.rd] = (regs[instr.ra] * regs[instr.rb]) & REG_MASK
            elif op == "SHL":
                regs[instr.rd] = (regs[instr.ra] << instr.imm) & REG_MASK
            elif op == "SHR":
                regs[instr.rd] = (regs[instr.ra] & REG_MASK) >> instr.imm
            elif op == "BLT":
                if regs[instr.ra] < regs[instr.rb]:
                    self.pc = instr.target
            elif op == "BGE":
                if regs[instr.ra] >= regs[instr.rb]:
                    self.pc = instr.target
            elif op == "JMP":
                self.pc = instr.target
            elif op == "JAL":
                regs[instr.rd] = self.pc
                self.pc = instr.target
            elif op == "JR":
                self.pc = regs[instr.ra]
            elif op == "DCBI":
                self.dcache.invalidate_line(regs[instr.ra] & REG_MASK)
            elif op == "EI":
                self.interrupts_enabled = True
            elif op == "DI":
                self.interrupts_enabled = False
            elif op == "NOP":
                pass
            elif op == "HALT":
                self._halt()
            else:
                yield from self._execute(instr)
            self.regs[0] = 0  # r0 is architecturally zero
            self.retired += 1
            if not self.in_isr:
                self.mainline_retired += 1

    def _wait(self, delay: int):
        """Hold this core for ``delay`` ticks (in place when nothing
        else is due first, see :meth:`Simulator.advance`)."""
        if not self.sim.advance(delay):
            yield self.sim.timeout(delay)

    def _fiq_ready(self) -> bool:
        if not (self.fiq.asserted and self.interrupts_enabled and not self.in_isr):
            return False
        if self.program is None or self.program.isr_entry is None:
            return False
        return self.sim.now >= self._fiq_take_time()

    def _fiq_take_time(self) -> int:
        """Earliest instant this FIQ assertion may be taken.

        The base response window plus a per-assertion seeded jitter —
        the paper's "ARM may or may not respond to the interrupt
        immediately, depending on the status of the CPU pipeline".
        """
        if self._fiq_assert_seen != self.fiq.assert_time:
            self._fiq_assert_seen = self.fiq.assert_time
            jitter = (
                self._jitter_rng.randrange(self.fiq_response_jitter_cycles + 1)
                if self.fiq_response_jitter_cycles
                else 0
            )
            self._fiq_target = self.fiq.assert_time + self.clock.cycles(
                self.fiq_response_cycles + jitter
            )
        return self._fiq_target

    def _fiq_wait_remaining(self) -> int:
        return max(1, self._fiq_take_time() - self.sim.now)

    def _enter_isr(self):
        self.isr_entries += 1
        self.stats.bump(self._stat_isr_entries)
        trace = self._trace_irq
        if trace.enabled:
            trace.emit(self.sim.now, self.name, "isr-enter", pc=self.pc)
        yield from self._wait(self.clock.cycles(self.interrupt_entry_cycles))
        self._saved_context = (self.pc, self.interrupts_enabled)
        self.in_isr = True
        self.interrupts_enabled = False
        self.pc = self.program.isr_entry

    def _return_from_isr(self):
        if self._saved_context is None:
            raise ExecutionError(f"{self.name}: RFI outside an ISR")
        self.pc, self.interrupts_enabled = self._saved_context
        self._saved_context = None
        self.in_isr = False
        trace = self._trace_irq
        if trace.enabled:
            trace.emit(self.sim.now, self.name, "isr-exit", pc=self.pc)
        yield from self._wait(self.clock.cycles(self.rfi_cycles))

    def _halt(self) -> None:
        self.halted = True
        self.halt_time = self.sim.now
        trace = self._trace_core
        if trace.enabled:
            trace.emit(self.sim.now, self.name, "halt", retired=self.retired)
        if not (self.done.triggered or self.done._scheduled):
            self.done.succeed(self.sim.now)

    # -- memory and timed ops ----------------------------------------------------
    def _execute(self, instr: Instr):
        """The other ops that wait: swaps, cache flushes, delays."""
        op = instr.op
        regs = self.regs
        if op == "SWP":
            addr = regs[instr.ra] & REG_MASK
            old = yield from self.dcache.swap(addr, regs[instr.rd])
            regs[instr.rd] = old
        elif op == "DCBF":
            drain = self.in_isr and self.isr_drain_priority
            priority = Priority.DRAIN if drain else Priority.NORMAL
            yield from self.dcache.flush_line(regs[instr.ra] & REG_MASK, priority)
        elif op == "DCBST":
            yield from self.dcache.writeback_line(regs[instr.ra] & REG_MASK)
        elif op == "SYNC":
            yield from self._wait(self.clock.cycles(self.sync_cycles))
        elif op == "DELAY":
            yield from self._wait(self.clock.cycles(instr.imm))
        elif op == "RFI":
            yield from self._return_from_isr()
        else:  # pragma: no cover - validate_instr guards this
            raise ExecutionError(f"{self.name}: unimplemented opcode {op}")
