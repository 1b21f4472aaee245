"""Unit tests for the shared coherence step (core/coherence.py)."""

import itertools

import pytest

from repro.bus import BusOp, SnoopAction
from repro.cache import MESIProtocol, MOESIProtocol, MSIProtocol, State, make_protocol
from repro.cache.protocols import PROTOCOLS
from repro.core import SHARED_BASE, Platform, PlatformConfig, SharedMode, WrapperPolicy
from repro.core.coherence import MISS, WriteMiss, resolve_window, step_for
from repro.core.reduction import reduce_protocols
from repro.cpu import preset_generic
from repro.engines import batch as batch_engine
from repro.engines import get_engine
from repro.errors import IntegrationError, ProtocolError
from repro.verify.model_check import ModelState, _SystemModel
from repro.workloads.tracegen import TraceAccess

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
        assert never.fill_for(False, True) is State.EXCLUSIVE
        assert always.fill_for(False, False) is State.SHARED
        assert always.fill_for(True, False) is State.MODIFIED

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


def _emitted_policies():
    """Every distinct policy :func:`reduce_protocols` emits, identity included."""
    names = ("MEI", "MSI", "MESI", "MOESI", None)
    combos = [c for n in (2, 3) for c in itertools.product(names, repeat=n) if any(c)]
    policies = {WrapperPolicy(), *reduce_protocols(["DRAGON", "DRAGON"]).policies}
    for combo in combos:
        policies.update(reduce_protocols(combo).policies)
    return sorted(policies, key=repr)


def _fsm(call, *args):
    """The FSM's answer, or the text of the error it raises."""
    try:
        return call(*args)
    except ProtocolError as exc:
        return f"raises: {exc}"


def _table(lookup, fallback, key):
    """The step's answer: its table entry, or its fallback's error."""
    if key in lookup:
        return lookup[key]
    return _fsm(fallback, *(key if isinstance(key, tuple) else (key,)))


CASES = [
    (name, policy)
    for name in sorted(PROTOCOLS)
    for policy in _emitted_policies()
]


class TestTables:
    """The eager tables answer exactly what the FSM answers."""

    @pytest.mark.parametrize("name,policy", CASES)
    def test_write_hit_and_fill_equal_the_fsm(self, name, policy):
        protocol = make_protocol(name)
        step = step_for(protocol, policy)
        for state in State:
            assert _table(step.write_hit, step.write_hit_for, state) == _fsm(
                protocol.write_hit, state
            )
        for exclusive, actual in itertools.product((False, True), repeat=2):
            assert _table(step.fill, step.fill_for, (exclusive, actual)) == _fsm(
                protocol.fill_state, exclusive, step.shared(actual)
            )

    def test_dragon_exclusive_fill_is_left_to_the_fsm(self):
        step = step_for(make_protocol("DRAGON"), WrapperPolicy())
        assert (True, False) not in step.fill
        with pytest.raises(ProtocolError, match="Dragon fills are never exclusive"):
            step.fill_for(True, False)

    def test_write_miss_rule(self):
        kinds = {name: step_for(make_protocol(name), WrapperPolicy()).write_miss
                 for name in PROTOCOLS}
        assert kinds == {
            "SI": WriteMiss.NO_ALLOCATE, "DRAGON": WriteMiss.FILL_SHARED,
            "MEI": WriteMiss.RWITM, "MSI": WriteMiss.RWITM,
            "MESI": WriteMiss.RWITM, "MOESI": WriteMiss.RWITM,
        }


class _ForeignFill(MSIProtocol):
    """MSI that fills into O, a state foreign to it."""

    def fill_state(self, exclusive, shared):
        return State.OWNED


FOREIGN = "MSI line in foreign state O"


class TestForeignState:
    """A write hit in a foreign state raises the FSM's own error in every
    executor of the step: a table miss falls back to the FSM."""

    def test_through_the_controller(self):
        platform = Platform(
            PlatformConfig(cores=(preset_generic("p0", "MSI"), preset_generic("p1", "MSI")))
        )
        p0 = platform.controllers[0]
        p0.protocol = _ForeignFill()

        def driver():
            yield from p0.read(SHARED_BASE)
            yield from p0.write(SHARED_BASE, 1)

        platform.sim.process(driver())
        with pytest.raises(ProtocolError, match=FOREIGN):
            platform.sim.run(detect_deadlock=False)

    def test_through_the_batch_engine(self, monkeypatch):
        real = batch_engine.make_protocol
        monkeypatch.setattr(
            batch_engine, "make_protocol",
            lambda name: _ForeignFill() if name == "MSI" else real(name),
        )
        config = PlatformConfig(cores=(preset_generic("p0", "MSI"),))
        accesses = [TraceAccess(0, "read", SHARED_BASE, None),
                    TraceAccess(0, "write", SHARED_BASE, 1)]
        with pytest.raises(ProtocolError, match=FOREIGN):
            get_engine("batch").run(config, accesses)

    def test_through_the_checker(self):
        model = _SystemModel(("MSI", "MSI"), (WrapperPolicy(), WrapperPolicy()))
        model.steps = (step_for(_ForeignFill(), WrapperPolicy()), model.steps[1])
        after_read, _bad = model.step(ModelState((State.INVALID,) * 2, (False,) * 2, True), "read0")
        assert after_read.states[0] is State.OWNED
        with pytest.raises(ProtocolError, match=FOREIGN):
            model.step(after_read, "write0")
