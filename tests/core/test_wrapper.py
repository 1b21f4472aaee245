"""Unit tests for the bus wrapper (Fig 1)."""

import pytest

from repro.bus import BusOp, SnoopAction, Transaction
from repro.cache import State
from repro.core import Platform, PlatformConfig, SharedMode, Wrapper, WrapperPolicy
from repro.core.coherence import step_for
from repro.cpu import preset_arm920t, preset_generic
from repro.errors import IntegrationError

SHARED = 0x2000_0000


def make_pair(p1="MESI", p2="MEI"):
    platform = Platform(
        PlatformConfig(cores=(preset_generic("p1", p1), preset_generic("p2", p2)))
    )
    return platform


def drive(platform, generator):
    proc = platform.sim.process(generator)
    platform.sim.run(detect_deadlock=False)
    return proc.value


class TestSnoopConversion:
    def test_converted_read_invalidates_exclusive_copy(self):
        platform = make_pair("MESI", "MEI")  # MESI side converts
        mesi = platform.controller("p1")
        drive(platform, mesi.read(SHARED))
        assert mesi.line_state(SHARED) is State.EXCLUSIVE
        wrapper = platform.wrappers[0]
        reply = wrapper.snoop(Transaction(BusOp.READ_LINE, SHARED, "p2"))
        assert reply.action is SnoopAction.OK  # invalidated, no shared
        assert mesi.line_state(SHARED) is State.INVALID

    def test_unconverted_read_downgrades_to_shared(self):
        platform = make_pair("MESI", "MESI")  # homogeneous: native snoop
        mesi = platform.controller("p1")
        drive(platform, mesi.read(SHARED))
        wrapper = platform.wrappers[0]
        reply = wrapper.snoop(Transaction(BusOp.READ_LINE, SHARED, "p2"))
        assert reply.action is SnoopAction.SHARED
        assert mesi.line_state(SHARED) is State.SHARED

    def test_dirty_snoop_hit_queues_drain(self):
        platform = make_pair("MESI", "MEI")
        mesi = platform.controller("p1")
        drive(platform, mesi.write(SHARED, 5))
        wrapper = platform.wrappers[0]
        reply = wrapper.snoop(Transaction(BusOp.READ_LINE, SHARED, "p2"))
        assert reply.action is SnoopAction.RETRY
        platform.sim.run(detect_deadlock=False)  # let the drain worker run
        assert reply.completion.triggered
        assert platform.memory.peek(SHARED) == 5
        assert mesi.line_state(SHARED) is State.INVALID  # converted: no S


def fill_step(platform, index):
    """The coherence step a wrapper's controller fills through."""
    wrapper = platform.wrappers[index]
    return step_for(wrapper.controller.protocol, wrapper.policy)


class TestSharedFilter:
    def test_never_mode_fills_exclusive(self):
        platform = make_pair("MESI", "MEI")
        assert platform.wrappers[0].policy.shared_mode is SharedMode.NEVER
        assert fill_step(platform, 0).shared(True) is False

    def test_always_mode_fills_shared(self):
        platform = make_pair("MSI", "MESI")
        mesi_wrapper = platform.wrappers[1]
        assert mesi_wrapper.policy.shared_mode is SharedMode.ALWAYS
        assert fill_step(platform, 1).shared(False) is True
        mesi = platform.controller("p2")
        drive(platform, mesi.read(SHARED))
        assert mesi.line_state(SHARED) is State.SHARED

    def test_native_mode_passthrough(self):
        platform = make_pair("MESI", "MESI")
        step = fill_step(platform, 0)
        assert step.shared(True) is True
        assert step.shared(False) is False


class TestGuards:
    def test_noncoherent_controller_rejected(self):
        platform = Platform(
            PlatformConfig(
                cores=(preset_generic("p1", "MESI"), preset_arm920t())
            )
        )
        with pytest.raises(IntegrationError):
            Wrapper(
                platform.sim,
                platform.controller("arm920t"),
                WrapperPolicy(),
                platform.bus,
            )

    def test_pending_drains_counter(self):
        platform = make_pair("MESI", "MEI")
        mesi = platform.controller("p1")
        drive(platform, mesi.write(SHARED, 5))
        wrapper = platform.wrappers[0]
        wrapper.snoop(Transaction(BusOp.READ_LINE, SHARED, "p2"))
        assert wrapper.pending_drains == 1
        platform.sim.run(detect_deadlock=False)
        assert wrapper.pending_drains == 0
