"""Exhaustive and property-based tests of the protocol FSMs."""

import pytest
from hypothesis import given, strategies as st

from repro.cache import (
    PROTOCOLS,
    MEIProtocol,
    MESIProtocol,
    MOESIProtocol,
    MSIProtocol,
    SIProtocol,
    SnoopOp,
    State,
    WriteAction,
    make_protocol,
)
from repro.errors import ProtocolError

ALL_PROTOCOLS = [MEIProtocol(), MSIProtocol(), MESIProtocol(), MOESIProtocol(), SIProtocol()]
ALL_SNOOP_OPS = list(SnoopOp)

M, O, E, S, I = (
    State.MODIFIED,
    State.OWNED,
    State.EXCLUSIVE,
    State.SHARED,
    State.INVALID,
)


class TestRegistry:
    def test_all_protocols_registered(self):
        assert set(PROTOCOLS) == {"MEI", "MSI", "MESI", "MOESI", "SI", "DRAGON"}

    def test_make_protocol_case_insensitive(self):
        assert make_protocol("mesi").name == "MESI"

    def test_make_protocol_unknown(self):
        with pytest.raises(KeyError):
            make_protocol("MOSI")


class TestStateSets:
    def test_mei_states(self):
        assert MEIProtocol.states == frozenset({M, E, I})

    def test_msi_states(self):
        assert MSIProtocol.states == frozenset({M, S, I})

    def test_mesi_states(self):
        assert MESIProtocol.states == frozenset({M, E, S, I})

    def test_moesi_states(self):
        assert MOESIProtocol.states == frozenset({M, O, E, S, I})

    def test_si_states(self):
        assert SIProtocol.states == frozenset({S, I})


class TestFillStates:
    @pytest.mark.parametrize("shared", [False, True])
    def test_mei_fill_ignores_shared(self, shared):
        assert MEIProtocol().fill_state(False, shared) is E

    @pytest.mark.parametrize("shared", [False, True])
    def test_msi_fill_always_shared_state(self, shared):
        assert MSIProtocol().fill_state(False, shared) is S

    def test_mesi_fill_honours_shared_signal(self):
        protocol = MESIProtocol()
        assert protocol.fill_state(False, shared=False) is E
        assert protocol.fill_state(False, shared=True) is S

    def test_moesi_fill_honours_shared_signal(self):
        protocol = MOESIProtocol()
        assert protocol.fill_state(False, shared=False) is E
        assert protocol.fill_state(False, shared=True) is S

    @pytest.mark.parametrize(
        "protocol", [MEIProtocol(), MSIProtocol(), MESIProtocol(), MOESIProtocol()]
    )
    def test_exclusive_fill_is_modified(self, protocol):
        assert protocol.fill_state(True, shared=False) is M

    def test_si_fill_is_shared(self):
        assert SIProtocol().fill_state(False, False) is S

    def test_si_exclusive_fill_rejected(self):
        with pytest.raises(ProtocolError):
            SIProtocol().fill_state(True, False)


class TestWriteHits:
    def test_mei_exclusive_upgrades_silently(self):
        state, action = MEIProtocol().write_hit(E)
        assert state is M and action is WriteAction.NONE

    def test_msi_shared_needs_bus_upgrade(self):
        state, action = MSIProtocol().write_hit(S)
        assert state is M and action is WriteAction.UPGRADE

    def test_mesi_exclusive_silent(self):
        state, action = MESIProtocol().write_hit(E)
        assert state is M and action is WriteAction.NONE

    def test_mesi_shared_upgrades(self):
        state, action = MESIProtocol().write_hit(S)
        assert state is M and action is WriteAction.UPGRADE

    def test_moesi_owned_upgrades(self):
        state, action = MOESIProtocol().write_hit(O)
        assert state is M and action is WriteAction.UPGRADE

    def test_si_write_through(self):
        state, action = SIProtocol().write_hit(S)
        assert state is S and action is WriteAction.WRITE_THROUGH

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_modified_stays_modified(self, protocol):
        if M not in protocol.states:
            pytest.skip("write-through protocol has no M")
        state, action = protocol.write_hit(M)
        assert state is M and action is WriteAction.NONE

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_write_hit_on_invalid_rejected(self, protocol):
        with pytest.raises(ProtocolError):
            protocol.write_hit(I)


class TestSnoopMEI:
    def test_read_on_modified_drains_and_invalidates(self):
        outcome = MEIProtocol().snoop(M, SnoopOp.READ)
        assert outcome.drain and outcome.next_state is I

    def test_read_on_exclusive_invalidates_clean(self):
        outcome = MEIProtocol().snoop(E, SnoopOp.READ)
        assert not outcome.drain and outcome.next_state is I

    def test_write_on_modified_drains(self):
        outcome = MEIProtocol().snoop(M, SnoopOp.WRITE)
        assert outcome.drain and outcome.next_state is I

    def test_never_asserts_shared(self):
        for state in (M, E):
            for op in ALL_SNOOP_OPS:
                assert not MEIProtocol().snoop(state, op).assert_shared


class TestSnoopMSI:
    def test_read_on_modified_flushes_to_shared(self):
        outcome = MSIProtocol().snoop(M, SnoopOp.READ)
        assert outcome.drain and outcome.next_state is S

    def test_read_on_shared_keeps_copy_without_signal(self):
        # MSI hardware has no shared-signal output pin (Table 3's hole).
        outcome = MSIProtocol().snoop(S, SnoopOp.READ)
        assert outcome.next_state is S
        assert not outcome.assert_shared

    def test_read_excl_kills_shared(self):
        assert MSIProtocol().snoop(S, SnoopOp.READ_EXCL).next_state is I

    def test_invalidate_on_modified_drains_defensively(self):
        outcome = MSIProtocol().snoop(M, SnoopOp.INVALIDATE)
        assert outcome.drain


class TestSnoopMESI:
    def test_read_on_exclusive_downgrades_to_shared(self):
        outcome = MESIProtocol().snoop(E, SnoopOp.READ)
        assert outcome.next_state is S and outcome.assert_shared

    def test_read_on_modified_flushes_to_shared(self):
        outcome = MESIProtocol().snoop(M, SnoopOp.READ)
        assert outcome.drain and outcome.next_state is S

    def test_write_invalidates_shared(self):
        assert MESIProtocol().snoop(S, SnoopOp.WRITE).next_state is I

    def test_read_excl_on_modified_drains(self):
        outcome = MESIProtocol().snoop(M, SnoopOp.READ_EXCL)
        assert outcome.drain and outcome.next_state is I


class TestSnoopMOESI:
    def test_read_on_modified_supplies_and_owns(self):
        outcome = MOESIProtocol().snoop(M, SnoopOp.READ)
        assert outcome.supply and outcome.next_state is O and outcome.assert_shared
        assert not outcome.drain

    def test_read_on_owned_keeps_supplying(self):
        outcome = MOESIProtocol().snoop(O, SnoopOp.READ)
        assert outcome.supply and outcome.next_state is O

    def test_read_excl_on_owned_supplies_and_invalidates(self):
        outcome = MOESIProtocol().snoop(O, SnoopOp.READ_EXCL)
        assert outcome.supply and outcome.next_state is I

    def test_plain_write_on_owned_drains(self):
        outcome = MOESIProtocol().snoop(O, SnoopOp.WRITE)
        assert outcome.drain and outcome.next_state is I

    def test_invalidate_on_owned_silent(self):
        outcome = MOESIProtocol().snoop(O, SnoopOp.INVALIDATE)
        assert not outcome.drain and outcome.next_state is I


class TestSnoopSI:
    def test_read_keeps_shared(self):
        outcome = SIProtocol().snoop(S, SnoopOp.READ)
        assert outcome.next_state is S and outcome.assert_shared

    def test_write_invalidates(self):
        assert SIProtocol().snoop(S, SnoopOp.WRITE).next_state is I

    def test_never_drains(self):
        for op in ALL_SNOOP_OPS:
            assert not SIProtocol().snoop(S, op).drain


# ---------------------------------------------------------------------------
# property tests across all protocols
# ---------------------------------------------------------------------------
protocol_strategy = st.sampled_from(ALL_PROTOCOLS)
op_strategy = st.sampled_from(ALL_SNOOP_OPS)


@given(protocol=protocol_strategy, op=op_strategy)
def test_property_snoop_on_invalid_is_miss(protocol, op):
    outcome = protocol.snoop(I, op)
    assert outcome.next_state is I
    assert not (outcome.drain or outcome.supply or outcome.assert_shared)


@given(protocol=protocol_strategy, op=op_strategy)
def test_property_snoop_stays_within_state_set(protocol, op):
    for state in protocol.states:
        if state is I:
            continue
        outcome = protocol.snoop(state, op)
        assert outcome.next_state in protocol.states


@given(protocol=protocol_strategy, op=op_strategy)
def test_property_drain_only_from_dirty(protocol, op):
    for state in protocol.states:
        if state is I:
            continue
        outcome = protocol.snoop(state, op)
        if outcome.drain:
            assert state.is_dirty


@given(
    protocol=st.sampled_from([make_protocol(name) for name in sorted(PROTOCOLS)]),
    op=op_strategy,
)
def test_property_apply_update_only_on_update(protocol, op):
    # Over every shipped protocol, Dragon included: only an UPDATE snoop
    # may patch the broadcast word into the local copy.
    for state in protocol.states:
        if state is I:
            continue
        if protocol.snoop(state, op).apply_update:
            assert op is SnoopOp.UPDATE


@given(protocol=protocol_strategy, op=op_strategy)
def test_property_supply_only_from_dirty_and_when_supported(protocol, op):
    for state in protocol.states:
        if state is I:
            continue
        outcome = protocol.snoop(state, op)
        if outcome.supply:
            assert protocol.supports_supply
            assert state.is_dirty


@given(protocol=protocol_strategy, op=op_strategy)
def test_property_foreign_write_never_leaves_valid_copy(protocol, op):
    if op not in (SnoopOp.WRITE, SnoopOp.READ_EXCL, SnoopOp.INVALIDATE):
        return
    for state in protocol.states:
        if state is I:
            continue
        outcome = protocol.snoop(state, op)
        assert outcome.next_state is I


@given(protocol=protocol_strategy, shared=st.booleans(), exclusive=st.booleans())
def test_property_fill_states_legal(protocol, shared, exclusive):
    if exclusive and M not in protocol.states:
        return
    state = protocol.fill_state(exclusive, shared)
    assert state in protocol.states
    assert state is not I


@given(protocol=protocol_strategy)
def test_property_foreign_state_rejected(protocol):
    for state in State:
        if state in protocol.states or state is I:
            continue
        with pytest.raises(ProtocolError):
            protocol.snoop(state, SnoopOp.READ)
