"""Lock implementations as code generators.

Each lock emits acquire/release sequences into an
:class:`~repro.cpu.assembler.Assembler`.  All of them follow the
paper's rule for PF1/PF2 platforms — lock state lives at *uncached*
addresses (or in the hardware lock register), because caching lock
variables invites the Fig 4 hardware deadlock:

* :class:`TurnLock` — strict alternation on an uncached turn word; the
  microbenchmarks use it for the WCS "tasks acquire the lock
  alternately" behaviour.
* :class:`SwapLock` — test-and-set spinlock built on the SWP atomic
  exchange (one bus-locked read-modify-write tenure).
* :class:`HwLock` — the 1-bit hardware lock register: a read atomically
  tests-and-sets, a zero write releases (Section 3, solution 2).
* :class:`BakeryLock` — Lamport's bakery algorithm (Section 3, solution
  1): mutual exclusion from plain uncached loads/stores, no atomic
  primitive needed.

Acquire/release sequences clobber r8-r12; task code should keep its
state in r1-r7.
"""

from __future__ import annotations

from ..cpu.assembler import Assembler
from ..errors import ConfigError

__all__ = ["Lock", "TurnLock", "SwapLock", "HwLock", "BakeryLock"]


class Lock:
    """Base class: a lock that can emit acquire/release code."""

    #: words of uncached lock-region storage the lock needs
    footprint_words = 1

    def __init__(self, base_addr: int):
        self.base_addr = base_addr
        self._seq = 0

    def _unique(self, stem: str) -> str:
        self._seq += 1
        return f"_{stem}_{self.base_addr:x}_{self._seq}"

    def emit_acquire(self, asm: Assembler, task_id: int) -> None:
        """Emit code that returns only once ``task_id`` holds the lock."""
        raise NotImplementedError

    def emit_release(self, asm: Assembler, task_id: int) -> None:
        """Emit code that releases the lock held by ``task_id``."""
        raise NotImplementedError


class TurnLock(Lock):
    """Strict alternation: spin until the turn word equals my id.

    Only correct when every task acquires in round-robin order — which
    is precisely the paper's worst-case lock-handoff assumption for the
    microbenchmarks ("each task acquiring the lock alternatively").

    ``probe_gap_cycles`` inserts a backoff delay between probes, the
    standard idiom for keeping a spinning processor from saturating the
    shared bus with useless lock reads.
    """

    def __init__(self, base_addr: int, n_tasks: int = 2, probe_gap_cycles: int = 18):
        super().__init__(base_addr)
        if n_tasks < 2:
            raise ConfigError("TurnLock needs at least two tasks")
        self.n_tasks = n_tasks
        self.probe_gap_cycles = probe_gap_cycles

    def emit_acquire(self, asm: Assembler, task_id: int) -> None:
        spin = self._unique("turn_spin")
        asm.li(8, self.base_addr)
        asm.li(9, task_id)
        asm.label(spin)
        if self.probe_gap_cycles:
            asm.delay(self.probe_gap_cycles)
        asm.ld(10, 8)
        asm.bne(10, 9, spin)

    def emit_release(self, asm: Assembler, task_id: int) -> None:
        asm.li(8, self.base_addr)
        asm.li(9, (task_id + 1) % self.n_tasks)
        asm.st(9, 8)


class SwapLock(Lock):
    """Test-and-set spinlock over the SWP atomic exchange.

    Probes back off ``probe_gap_cycles`` between attempts to keep the
    bus-locked RMW traffic from starving useful transactions.
    """

    def __init__(self, base_addr: int, probe_gap_cycles: int = 8):
        super().__init__(base_addr)
        self.probe_gap_cycles = probe_gap_cycles

    def emit_acquire(self, asm: Assembler, task_id: int) -> None:
        spin = self._unique("swp_spin")
        asm.li(8, self.base_addr)
        asm.label(spin)
        asm.li(9, 1)
        asm.swp(9, 8)           # r9 <- old value; lock word <- 1
        if self.probe_gap_cycles:
            skip = self._unique("swp_got")
            asm.beq(9, 0, skip)
            asm.delay(self.probe_gap_cycles)
            asm.jmp(spin)
            asm.label(skip)
        else:
            asm.bne(9, 0, spin)

    def emit_release(self, asm: Assembler, task_id: int) -> None:
        asm.li(8, self.base_addr)
        asm.st(0, 8)            # store zero releases


class HwLock(Lock):
    """The hardware lock register: read acquires, zero-write releases."""

    def emit_acquire(self, asm: Assembler, task_id: int) -> None:
        spin = self._unique("hw_spin")
        asm.li(8, self.base_addr)
        asm.label(spin)
        asm.ld(9, 8)            # read is an atomic test-and-set
        asm.bne(9, 0, spin)

    def emit_release(self, asm: Assembler, task_id: int) -> None:
        asm.li(8, self.base_addr)
        asm.st(0, 8)


class BakeryLock(Lock):
    """Lamport's bakery algorithm on uncached words (no atomics).

    Layout at ``base_addr``: ``choosing[n]`` then ``number[n]``, one
    word each.  The emitted code is the textbook algorithm with the
    inner waits spinning on uncached loads.
    """

    def __init__(self, base_addr: int, n_tasks: int = 2):
        super().__init__(base_addr)
        if n_tasks < 2:
            raise ConfigError("BakeryLock needs at least two tasks")
        self.n_tasks = n_tasks
        self.footprint_words = 2 * n_tasks

    def _choosing(self, i: int) -> int:
        return self.base_addr + 4 * i

    def _number(self, i: int) -> int:
        return self.base_addr + 4 * (self.n_tasks + i)

    def emit_acquire(self, asm: Assembler, task_id: int) -> None:
        # choosing[i] = 1
        asm.li(8, self._choosing(task_id))
        asm.li(9, 1)
        asm.st(9, 8)
        # number[i] = 1 + max(number[0..n-1])   (r10 accumulates the max)
        asm.li(10, 0)
        for j in range(self.n_tasks):
            skip = self._unique(f"bak_max{j}")
            asm.li(8, self._number(j))
            asm.ld(9, 8)
            asm.bge(10, 9, skip)   # keep current max when >= number[j]
            asm.mov(10, 9)
            asm.label(skip)
        asm.addi(10, 10, 1)
        asm.li(8, self._number(task_id))
        asm.st(10, 8)              # r10 = my ticket, kept live below
        # choosing[i] = 0
        asm.li(8, self._choosing(task_id))
        asm.st(0, 8)
        # for each other task j: wait out its choice, then defer to
        # lexicographically smaller (number, id) pairs.
        for j in range(self.n_tasks):
            if j == task_id:
                continue
            wait_choosing = self._unique(f"bak_ch{j}")
            wait_number = self._unique(f"bak_num{j}")
            done = self._unique(f"bak_done{j}")
            asm.label(wait_choosing)
            asm.li(8, self._choosing(j))
            asm.ld(9, 8)
            asm.bne(9, 0, wait_choosing)
            asm.label(wait_number)
            asm.li(8, self._number(j))
            asm.ld(9, 8)
            asm.beq(9, 0, done)        # j is not competing
            asm.blt(9, 10, wait_number)  # number[j] < mine: defer
            asm.bne(9, 10, done)       # number[j] > mine: my turn vs j
            # numbers equal: the smaller task id wins
            if j < task_id:
                asm.jmp(wait_number)
            asm.label(done)

    def emit_release(self, asm: Assembler, task_id: int) -> None:
        asm.li(8, self._number(task_id))
        asm.st(0, 8)
