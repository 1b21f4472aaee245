"""Unit tests for the shared coherence step (core/coherence.py)."""

import pytest

from repro.bus import BusOp, SnoopAction
from repro.cache import MESIProtocol, MOESIProtocol, MSIProtocol, State
from repro.core import SHARED_BASE, Platform, PlatformConfig, SharedMode, WrapperPolicy
from repro.core.coherence import MISS, resolve_window, step_for
from repro.cpu import preset_generic
from repro.errors import IntegrationError, ProtocolError

NO_SUPPLY = WrapperPolicy(allow_supply=False)


class _Reply:
    def __init__(self, action):
        self.action = action


def window(*actions):
    return [(index, _Reply(action)) for index, action in enumerate(actions)]


class TestStep:
    def test_read_to_write_conversion_is_folded_in(self):
        native = step_for(MESIProtocol(), WrapperPolicy())
        converted = step_for(MESIProtocol(), WrapperPolicy(convert_read_to_write=True))
        shared = native.outcome(BusOp.READ_LINE, State.EXCLUSIVE, "p1")
        assert (shared.action, shared.next_state) == (SnoopAction.SHARED, State.SHARED)
        dropped = converted.outcome(BusOp.READ_LINE, State.EXCLUSIVE, "p1")
        assert (dropped.action, dropped.next_state) == (SnoopAction.OK, State.INVALID)
        drain = converted.outcome(BusOp.READ_LINE_EXCL, State.MODIFIED, "p1")
        assert (drain.action, drain.next_state) == (SnoopAction.RETRY, State.INVALID)

    def test_fill_forces_the_shared_signal(self):
        never = step_for(MESIProtocol(), WrapperPolicy(shared_mode=SharedMode.NEVER))
        always = step_for(MESIProtocol(), WrapperPolicy(shared_mode=SharedMode.ALWAYS))
        assert never.fill(False, True) is State.EXCLUSIVE
        assert always.fill(False, False) is State.SHARED
        assert always.fill(True, False) is State.MODIFIED

    def test_memoised_per_protocol_and_policy(self):
        policy = WrapperPolicy(convert_read_to_write=True)
        assert step_for(MSIProtocol(), policy) is step_for(MSIProtocol(), policy)
        assert step_for(MSIProtocol(), policy) is not step_for(MSIProtocol(), WrapperPolicy())

    def test_foreign_state_raises_on_lookup(self):
        step = step_for(MSIProtocol(), WrapperPolicy())
        with pytest.raises(ProtocolError):
            step.outcome(BusOp.READ_LINE, State.OWNED, "p1")


class TestSupplyGuard:
    def test_forbidden_supply_raises_through_the_step(self):
        step = step_for(MOESIProtocol(), NO_SUPPLY)
        assert State.MODIFIED not in step.table[BusOp.READ_LINE]
        with pytest.raises(IntegrationError, match="p1: MOESI attempted .* forbids it"):
            step.outcome(BusOp.READ_LINE, State.MODIFIED, "p1")
        # A clean copy answers normally under the same policy.
        clean = step.outcome(BusOp.READ_LINE, State.EXCLUSIVE, "p1")
        assert clean.action is SnoopAction.SHARED

    def test_forbidden_supply_raises_through_an_exact_run(self):
        platform = Platform(
            PlatformConfig(
                cores=(preset_generic("p0", "MOESI"), preset_generic("p1", "MOESI"))
            )
        )
        for wrapper in platform.wrappers:
            wrapper.policy = NO_SUPPLY
        p0, p1 = platform.controllers

        def driver():
            yield from p0.write(SHARED_BASE, 7)  # p0 holds the line M
            yield from p1.read(SHARED_BASE)      # miss: p0 would intervene

        platform.sim.process(driver())
        # The error names the cache that would have supplied.
        with pytest.raises(IntegrationError, match="p0: MOESI attempted .* forbids it"):
            platform.sim.run(detect_deadlock=False)


class TestWindow:
    def test_quiet_window_reads_memory(self):
        assert resolve_window(window(SnoopAction.OK, SnoopAction.OK)) == ([], False, None)
        assert resolve_window([]) == ([], False, None)

    def test_any_retry_aborts(self):
        replies = window(SnoopAction.SHARED, SnoopAction.RETRY, SnoopAction.RETRY)
        retriers, _shared, _supplier = resolve_window(replies)
        assert [index for index, _ in retriers] == [1, 2]

    def test_shared_is_the_wired_or_and_supply_counts(self):
        assert resolve_window(window(SnoopAction.OK, SnoopAction.SHARED))[1] is True
        assert resolve_window(window(SnoopAction.SUPPLY))[1] is True

    def test_first_supplier_sources_the_data(self):
        replies = window(SnoopAction.SHARED, SnoopAction.SUPPLY, SnoopAction.SUPPLY)
        assert resolve_window(replies)[2] is replies[1]

    def test_miss_is_a_quiet_reply(self):
        assert (MISS.action, MISS.next_state) == (SnoopAction.OK, State.INVALID)
