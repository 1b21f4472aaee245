"""Tests for the protocol-reduction algebra (Section 2)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.cache import State
from repro.core import (
    PROTOCOL_STATES,
    SharedMode,
    reduce_protocols,
    system_states,
)
from repro.errors import IntegrationError

NAMES = ("MEI", "MSI", "MESI", "MOESI")


class TestSystemStates:
    def test_intersection_semantics(self):
        assert system_states(["MESI", "MEI"]) == PROTOCOL_STATES["MEI"]
        assert system_states(["MSI", "MESI"]) == PROTOCOL_STATES["MSI"]
        assert system_states(["MESI", "MOESI"]) == PROTOCOL_STATES["MESI"]

    def test_none_counts_as_mei(self):
        assert system_states([None, "MOESI"]) == PROTOCOL_STATES["MEI"]

    def test_msi_with_mei_keeps_only_mi(self):
        # MSI n MEI = {M, I}: no named protocol, but the reduction maps
        # it onto MEI semantics (the S copies become de-facto exclusive).
        states = system_states(["MSI", "MEI"])
        assert State.SHARED not in states
        assert State.EXCLUSIVE not in states

    def test_unknown_protocol_rejected(self):
        with pytest.raises(IntegrationError):
            system_states(["MESI", "MOSI"])


class TestPaperCases:
    """Section 2.1-2.3, case by case."""

    def test_mei_with_mesi(self):
        result = reduce_protocols(["MEI", "MESI"])
        assert result.system_protocol == "MEI"
        mei_policy, mesi_policy = result.policies
        assert mei_policy.is_identity  # the paper: PPC755 needs no conversion
        assert mesi_policy.convert_read_to_write
        assert mesi_policy.shared_mode is SharedMode.NEVER

    def test_mei_with_msi(self):
        result = reduce_protocols(["MEI", "MSI"])
        assert result.system_protocol == "MEI"
        _, msi_policy = result.policies
        assert msi_policy.convert_read_to_write
        # MSI has no shared-signal input: I->S is unremovable (2.1.1),
        # so forcing the signal is pointless and NATIVE is kept.
        assert msi_policy.shared_mode is SharedMode.NATIVE

    def test_mei_with_moesi(self):
        result = reduce_protocols(["MEI", "MOESI"])
        assert result.system_protocol == "MEI"
        _, moesi_policy = result.policies
        assert moesi_policy.convert_read_to_write
        assert moesi_policy.shared_mode is SharedMode.NEVER
        assert not moesi_policy.allow_supply

    def test_msi_with_mesi(self):
        result = reduce_protocols(["MSI", "MESI"])
        assert result.system_protocol == "MSI"
        msi_policy, mesi_policy = result.policies
        assert msi_policy.is_identity
        assert mesi_policy.shared_mode is SharedMode.ALWAYS
        assert not mesi_policy.convert_read_to_write

    def test_msi_with_moesi(self):
        result = reduce_protocols(["MSI", "MOESI"])
        assert result.system_protocol == "MSI"
        _, moesi_policy = result.policies
        assert moesi_policy.shared_mode is SharedMode.ALWAYS
        assert moesi_policy.convert_read_to_write  # blocks M->O (2.2)
        assert not moesi_policy.allow_supply

    def test_mesi_with_moesi(self):
        result = reduce_protocols(["MESI", "MOESI"])
        assert result.system_protocol == "MESI"
        mesi_policy, moesi_policy = result.policies
        assert mesi_policy.is_identity
        assert moesi_policy.convert_read_to_write  # blocks M->O, E->S (2.3)
        assert moesi_policy.shared_mode is SharedMode.NATIVE
        assert not moesi_policy.allow_supply

    def test_noncoherent_forces_mei_treatment(self):
        result = reduce_protocols([None, "MESI"])
        assert result.system_protocol == "MEI"
        _, mesi_policy = result.policies
        assert mesi_policy.convert_read_to_write
        assert mesi_policy.shared_mode is SharedMode.NEVER


class TestHomogeneous:
    @pytest.mark.parametrize("name", NAMES)
    def test_identity_policies(self, name):
        result = reduce_protocols([name, name])
        assert result.system_protocol == name
        for policy in result.policies:
            if name == "MOESI":
                assert policy.is_identity
            else:
                assert not policy.convert_read_to_write
                assert policy.shared_mode is SharedMode.NATIVE

    def test_moesi_homogeneous_keeps_supply(self):
        result = reduce_protocols(["MOESI", "MOESI"])
        assert all(p.allow_supply for p in result.policies)


class TestEdgeCases:
    def test_empty_rejected(self):
        with pytest.raises(IntegrationError):
            reduce_protocols([])

    def test_unknown_rejected(self):
        with pytest.raises(IntegrationError):
            reduce_protocols(["MESI", "XYZ"])

    def test_case_insensitive(self):
        assert reduce_protocols(["mesi", "mei"]).system_protocol == "MEI"

    def test_single_processor(self):
        result = reduce_protocols(["MESI"])
        assert result.system_protocol == "MESI"

    def test_three_processors(self):
        result = reduce_protocols(["MEI", "MESI", "MOESI"])
        assert result.system_protocol == "MEI"
        assert result.policy_for(1).convert_read_to_write
        assert result.policy_for(2).convert_read_to_write


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------
name_strategy = st.sampled_from(NAMES + (None,))


@given(protocols=st.lists(name_strategy, min_size=1, max_size=4))
def test_property_system_protocol_states_are_intersection(protocols):
    result = reduce_protocols(protocols)
    target = system_states(protocols)
    if target == frozenset({State.MODIFIED, State.INVALID}):
        # MEI n MSI: unnamed intersection, canonicalized to MEI.
        assert result.system_protocol == "MEI"
    else:
        assert PROTOCOL_STATES[result.system_protocol] == target


@given(protocols=st.lists(name_strategy, min_size=1, max_size=4))
def test_property_order_independent_system_protocol(protocols):
    result = reduce_protocols(protocols)
    reversed_result = reduce_protocols(list(reversed(protocols)))
    assert result.system_protocol == reversed_result.system_protocol


@given(protocols=st.lists(name_strategy, min_size=1, max_size=3))
def test_property_supply_requires_owned_everywhere(protocols):
    # allow_supply is vacuous except for MOESI members: a MOESI member
    # may only keep it when the whole system retains the O state.
    result = reduce_protocols(protocols)
    for name, policy in zip(protocols, result.policies):
        if name == "MOESI" and policy.allow_supply:
            assert result.system_protocol == "MOESI"


@given(protocols=st.lists(name_strategy, min_size=1, max_size=3))
def test_property_policy_count_matches_inputs(protocols):
    result = reduce_protocols(protocols)
    assert len(result.policies) == len(protocols)


@given(name=st.sampled_from(NAMES))
def test_property_duplicating_a_protocol_changes_nothing(name):
    single = reduce_protocols([name]).system_protocol
    double = reduce_protocols([name, name]).system_protocol
    assert single == double


def test_exhaustive_pairs_match_state_intersection():
    for a, b in itertools.product(NAMES, NAMES):
        result = reduce_protocols([a, b])
        expected = PROTOCOL_STATES[a] & PROTOCOL_STATES[b]
        # The {M, I} case (MEI x MSI) maps onto MEI semantics.
        if expected == frozenset({State.MODIFIED, State.INVALID}):
            assert result.system_protocol == "MEI"
        else:
            assert PROTOCOL_STATES[result.system_protocol] == expected


class TestNWayAlgebra:
    """The reduction must compose N-way, not just pairwise (Section 2's
    intersection is associative and commutative; the per-member policies
    must follow the permutation of the inputs)."""

    def test_exhaustive_triples_fold_associatively(self):
        # reduce(a, b, c) == reduce(reduce(a, b), c) at the system level
        # for every triple, including the non-coherent member.
        for triple in itertools.product(NAMES + (None,), repeat=3):
            direct = reduce_protocols(list(triple)).system_protocol
            paired = reduce_protocols([triple[0], triple[1]]).system_protocol
            folded = reduce_protocols([paired, triple[2]]).system_protocol
            assert folded == direct, triple

    def test_exhaustive_triples_policy_permutation(self):
        # Permuting the inputs permutes the policies and nothing else.
        for triple in itertools.product(NAMES, repeat=3):
            direct = reduce_protocols(list(triple))
            for perm in itertools.permutations(range(3)):
                permuted = reduce_protocols([triple[i] for i in perm])
                assert permuted.system_protocol == direct.system_protocol
                assert permuted.policies == tuple(
                    direct.policies[i] for i in perm
                ), (triple, perm)

    def test_four_way_mixed_fold(self):
        result = reduce_protocols(["MESI", "MOESI", "MSI", "MEI"])
        assert result.system_protocol == "MEI"
        assert len(result.policies) == 4
        # Every member whose native protocol has more states than the
        # system protocol needs the read-to-write conversion.
        for name, policy in zip(("MESI", "MOESI", "MSI"), result.policies):
            assert policy.convert_read_to_write, name
        assert result.policies[3].is_identity  # the MEI member

    def test_four_way_homogeneous_is_identity(self):
        for name in NAMES:
            result = reduce_protocols([name] * 4)
            assert result.system_protocol == name
            for policy in result.policies:
                if name == "MOESI":
                    assert policy.allow_supply
                else:
                    assert policy.is_identity

    def test_widest_mix_with_noncoherent_member(self):
        result = reduce_protocols(["MOESI", "MESI", "MSI", "MEI", None])
        assert result.system_protocol == "MEI"
        assert len(result.policies) == 5
        assert not result.policies[0].allow_supply  # O state reduced away
