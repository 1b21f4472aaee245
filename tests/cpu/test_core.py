"""Unit tests for the in-order core."""

import pytest

from repro.bus import AsbBus
from repro.cache import CacheController, CacheGeometry, make_protocol
from repro.cpu import Assembler, Core
from repro.errors import ConfigError, ExecutionError, SimulationError
from repro.mem import MainMemory, MemoryController, MemoryMap, Region
from repro.sim import Clock, Simulator
from repro.workloads import MicrobenchSpec, run_microbench


def make_core(freq_mhz=50, **core_kwargs):
    sim = Simulator()
    memory = MainMemory()
    memory_map = MemoryMap(
        [
            Region("ram", 0, 0x10000),
            Region("io", 0x10000, 0x1000, cacheable=False),
        ]
    )
    bus = AsbBus(sim, Clock.from_mhz(50), MemoryController(memory, memory_map))
    cache = CacheController(
        "cpu", sim, bus, memory_map, CacheGeometry(1024, 32, 2), make_protocol("MESI")
    )
    core = Core("cpu", sim, Clock.from_mhz(freq_mhz), cache, **core_kwargs)
    return sim, memory, core


def run_program(asm, freq_mhz=50, **core_kwargs):
    sim, memory, core = make_core(freq_mhz, **core_kwargs)
    core.load_program(asm.assemble())
    core.start()
    sim.run()
    return sim, memory, core


class TestArithmetic:
    def test_li_mov_add(self):
        asm = Assembler()
        asm.li(1, 10).li(2, 32).add(3, 1, 2).mov(4, 3).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[3] == 42
        assert core.regs[4] == 42

    def test_sub_wraps_32_bits(self):
        asm = Assembler()
        asm.li(1, 0).subi(2, 1, 1).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[2] == 0xFFFF_FFFF

    def test_logic_ops(self):
        asm = Assembler()
        asm.li(1, 0b1100).li(2, 0b1010)
        asm.and_(3, 1, 2).or_(4, 1, 2).xor(5, 1, 2).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[3] == 0b1000
        assert core.regs[4] == 0b1110
        assert core.regs[5] == 0b0110

    def test_shifts(self):
        asm = Assembler()
        asm.li(1, 0x80).shl(2, 1, 4).shr(3, 1, 3).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[2] == 0x800
        assert core.regs[3] == 0x10

    def test_mul_masks(self):
        asm = Assembler()
        asm.li(1, 0x10000).mul(2, 1, 1).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[2] == 0

    def test_r0_is_architecturally_zero(self):
        asm = Assembler()
        asm.li(0, 99).mov(1, 0).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[1] == 0


class TestControlFlow:
    def test_counted_loop(self):
        asm = Assembler()
        asm.li(1, 5).li(2, 0)
        asm.label("loop")
        asm.addi(2, 2, 3)
        asm.subi(1, 1, 1)
        asm.bne(1, 0, "loop")
        asm.halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[2] == 15

    def test_blt_bge_unsigned(self):
        asm = Assembler()
        asm.li(1, 3).li(2, 7)
        asm.blt(1, 2, "lt_taken")
        asm.li(3, 0).halt()
        asm.label("lt_taken")
        asm.li(3, 1)
        asm.bge(2, 1, "ge_taken")
        asm.halt()
        asm.label("ge_taken")
        asm.li(4, 1).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[3] == 1
        assert core.regs[4] == 1

    def test_jal_jr_roundtrip(self):
        asm = Assembler()
        asm.jal(15, "sub")
        asm.li(2, 2).halt()
        asm.label("sub")
        asm.li(1, 1)
        asm.jr(15)
        _sim, _memory, core = run_program(asm)
        assert core.regs[1] == 1
        assert core.regs[2] == 2

    def test_pc_out_of_range_traps(self):
        asm = Assembler()
        asm.nop()  # falls off the end
        sim, _memory, core = make_core()
        core.load_program(asm.assemble())
        core.start()
        with pytest.raises(ExecutionError):
            sim.run()


class TestFetch:
    """The fetch check: a PC outside the program traps with its range."""

    def _trap(self, asm):
        sim, _memory, core = make_core()
        core.load_program(asm.assemble())
        core.start()
        with pytest.raises(ExecutionError) as info:
            sim.run()
        return str(info.value), core

    def test_running_off_the_end_without_halt(self):
        asm = Assembler()
        asm.li(1, 7).nop()
        message, core = self._trap(asm)
        assert message == "cpu: PC 2 outside program (0..1)"
        assert core.retired == 2 and core.regs[1] == 7

    def test_jr_to_an_out_of_range_address(self):
        asm = Assembler()
        asm.li(1, 100).jr(1).halt()
        message, core = self._trap(asm)
        assert message == "cpu: PC 100 outside program (0..2)"
        assert core.retired == 2 and not core.halted

    def test_jr_past_the_last_instruction_by_one(self):
        asm = Assembler()
        asm.li(1, 3).jr(1).halt()
        message, _core = self._trap(asm)
        assert message == "cpu: PC 3 outside program (0..2)"

    def test_negative_cpi_raises_before_the_first_instruction(self):
        sim, _memory, core = make_core(cpi=-1)
        core.load_program(Assembler().li(1, 7).halt().assemble())
        core.start()
        with pytest.raises(ConfigError, match="negative cycle count"):
            sim.run()
        assert (core.retired, core.regs[1], sim.now) == (0, 0, 0)


class TestMemoryInstructions:
    def test_ld_st_roundtrip(self):
        asm = Assembler()
        asm.li(1, 0x100).li(2, 1234).st(2, 1).ld(3, 1).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[3] == 1234

    def test_st_offset_addressing(self):
        asm = Assembler()
        asm.li(1, 0x100).li(2, 9).st(2, 1, 8).ld(3, 1, 8).halt()
        _sim, _memory, core = run_program(asm)
        assert core.regs[3] == 9

    def test_swp_on_uncached(self):
        asm = Assembler()
        asm.li(1, 0x10000).li(2, 5).swp(2, 1).ld(3, 1).halt()
        sim, memory, core = run_program(asm)
        assert core.regs[2] == 0  # old value
        assert core.regs[3] == 5

    def test_dcbf_flushes_dirty_line(self):
        asm = Assembler()
        asm.li(1, 0x100).li(2, 31).st(2, 1).dcbf(1).halt()
        _sim, memory, _core = run_program(asm)
        assert memory.peek(0x100) == 31


class TestTiming:
    def test_instruction_costs_one_cycle(self):
        asm = Assembler()
        asm.nop().nop().nop().halt()
        sim, _memory, core = run_program(asm, freq_mhz=100)
        assert core.halt_time == 4 * 10  # 4 instructions at 10ns

    def test_delay_consumes_extra_cycles(self):
        asm = Assembler()
        asm.delay(10).halt()
        sim, _memory, core = run_program(asm, freq_mhz=100)
        assert core.halt_time == (1 + 10 + 1) * 10

    def test_sync_costs_sync_cycles(self):
        asm = Assembler()
        asm.sync().halt()
        _sim, _memory, core = run_program(asm, freq_mhz=100, sync_cycles=7)
        assert core.halt_time == (1 + 7 + 1) * 10

    def test_clock_domain_scales_time(self):
        asm = Assembler()
        asm.nop().halt()
        _sim, _memory, slow = run_program(asm, freq_mhz=50)
        asm2 = Assembler()
        asm2.nop().halt()
        _sim, _memory, fast = run_program(asm2, freq_mhz=100)
        assert slow.halt_time == 2 * fast.halt_time


class TestHaltAndInterrupts:
    def test_done_event_fires_with_time(self):
        asm = Assembler()
        asm.halt()
        sim, _memory, core = run_program(asm)
        assert core.done.triggered
        assert core.halted

    def test_retired_counter(self):
        asm = Assembler()
        asm.nop().nop().halt()
        _sim, _memory, core = run_program(asm)
        assert core.retired == 3

    def test_fiq_enters_isr_and_returns(self):
        asm = Assembler()
        asm.li(1, 400)
        asm.label("spin")
        asm.subi(1, 1, 1)
        asm.bne(1, 0, "spin")
        asm.halt()
        asm.isr("_isr")
        asm.li(5, 42)
        asm.rfi()
        sim, _memory, core = make_core()
        core.load_program(asm.assemble())
        core.start()

        def poker():
            yield sim.timeout(500)
            core.fiq.assert_line()
            yield sim.timeout(200)
            core.fiq.deassert()

        sim.process(poker())
        sim.run()
        assert core.isr_entries >= 1
        assert core.regs[5] == 42
        assert core.halted

    def test_fiq_respects_response_time(self):
        asm = Assembler()
        asm.li(1, 100)
        asm.label("spin")
        asm.subi(1, 1, 1)
        asm.bne(1, 0, "spin")
        asm.halt()
        asm.isr("_isr")
        asm.rfi()
        sim, _memory, core = make_core(fiq_response_cycles=10)
        core.load_program(asm.assemble())
        core.start()
        entries = []
        core.tracer.add_listener(
            lambda r: entries.append(r.time) if r.kind == "isr-enter" else None
        )

        def poker():
            yield sim.timeout(100)
            core.fiq.assert_line()
            yield sim.timeout(400)
            core.fiq.deassert()

        sim.process(poker())
        sim.run()
        assert entries
        # The first entry samples no earlier than assert + response time.
        assert entries[0] >= 100 + 10 * 20

    def test_interrupts_disabled_blocks_fiq(self):
        asm = Assembler()
        asm.di()
        asm.li(1, 200)
        asm.label("spin")
        asm.subi(1, 1, 1)
        asm.bne(1, 0, "spin")
        asm.halt()
        asm.isr("_isr")
        asm.rfi()
        sim, _memory, core = make_core()
        core.load_program(asm.assemble())
        core.start()
        core.fiq.assert_line()
        sim.run(until=200_000, detect_deadlock=False)
        assert core.isr_entries == 0
        assert core.halted

    def test_halted_core_services_fiq(self):
        asm = Assembler()
        asm.halt()
        asm.isr("_isr")
        asm.li(5, 7)
        asm.rfi()
        sim, _memory, core = make_core()
        core.load_program(asm.assemble())
        core.start()

        def poker():
            yield sim.timeout(1000)
            core.fiq.assert_line()
            yield sim.timeout(100)
            core.fiq.deassert()

        sim.process(poker())
        sim.run(until=10_000, detect_deadlock=False)
        assert core.isr_entries >= 1
        assert core.regs[5] == 7
        assert core.halted  # returned to the halt loop

    def test_rfi_outside_isr_traps(self):
        asm = Assembler()
        asm.rfi()
        sim, _memory, core = make_core()
        core.load_program(asm.assemble())
        core.start()
        with pytest.raises(ExecutionError):
            sim.run()

    def test_start_without_program_rejected(self):
        sim, _memory, core = make_core()
        with pytest.raises(ExecutionError):
            core.start()


class TestPinnedTiming:
    """Figures the interpreter produced before ALU instructions and bus
    phases advanced the clock in place; they must not move."""

    def test_spin_loop_hits_max_events_where_it_always_did(self):
        asm = Assembler()
        asm.label("spin").jmp("spin")
        sim, _memory, core = make_core()
        core.load_program(asm.assemble())
        core.start()
        with pytest.raises(SimulationError, match="max_events=1000"):
            sim.run(max_events=1000)
        assert sim.events_fired == 1000
        assert sim.now == 19_980

    def test_fiq_during_a_long_alu_run_is_taken_at_the_same_tick(self):
        asm = Assembler()
        asm.li(1, 400)
        asm.label("spin")
        asm.subi(1, 1, 1)
        asm.bne(1, 0, "spin")
        asm.halt()
        asm.isr("_isr")
        asm.li(5, 42)
        asm.rfi()
        sim, _memory, core = make_core()
        core.load_program(asm.assemble())
        core.start()
        seen = []
        core.tracer.add_listener(
            lambda r: seen.append((r.time, r.kind))
            if r.kind in ("isr-enter", "isr-exit", "halt") else None
        )

        def poker():
            # Asserted mid-instruction by another process: the core
            # takes it at the first boundary after the response window.
            yield sim.timeout(1010)
            core.fiq.assert_line()
            yield sim.timeout(200)
            core.fiq.deassert()

        sim.process(poker())
        sim.run()
        assert seen == [(1060, "isr-enter"), (1180, "isr-exit"), (16_200, "halt")]
        assert (core.retired, sim.events_fired) == (804, 812)

    def test_bcs_microbench_events_and_time(self):
        result = run_microbench(
            MicrobenchSpec(
                scenario="bcs", solution="proposed", lines=32,
                exec_time=1, iterations=8,
            ),
            keep_platform=True,
        )
        assert result.platform.sim.events_fired == 17_904
        assert result.elapsed_ns == 286_260
