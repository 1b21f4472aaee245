"""Tests for the exhaustive protocol-pair model checker."""

import itertools

import pytest

from repro.cache import MESIProtocol, State
from repro.cache.protocols.base import SnoopOp, SnoopOutcome
from repro.core.coherence import step_for
from repro.core.reduction import WrapperPolicy
from repro.errors import ProtocolError
from repro.verify.model_check import (
    ModelState,
    _SystemModel,
    check_matrix,
    check_pair,
    check_system,
)

NAMES = ("MEI", "MSI", "MESI", "MOESI")


class TestWrappedMatrix:
    """Section 2's central claim, proven exhaustively."""

    @pytest.mark.parametrize("p0,p1", list(itertools.product(NAMES, NAMES)))
    def test_every_wrapped_pair_is_safe(self, p0, p1):
        result = check_pair(p0, p1, wrapped=True)
        assert result.ok, result.render()

    def test_matrix_helper_covers_all_pairs(self):
        results = check_matrix()
        assert len(results) == 16
        assert all(result.ok for result in results.values())

    def test_exploration_is_small_and_finite(self):
        result = check_pair("MOESI", "MOESI")
        assert 0 < result.reachable_states < 100


class TestUnwrappedFailures:
    """The paper's incompatible pairs, refuted exhaustively."""

    @pytest.mark.parametrize(
        "p0,p1",
        [("MESI", "MEI"), ("MSI", "MESI"), ("MSI", "MEI"), ("MOESI", "MEI"),
         ("MOESI", "MSI")],
    )
    def test_broken_pairs_unsafe(self, p0, p1):
        result = check_pair(p0, p1, wrapped=False)
        assert not result.ok

    def test_violation_comes_with_witness_path(self):
        result = check_pair("MESI", "MEI", wrapped=False)
        violation = result.violations[0]
        assert len(violation.path) >= 2
        assert "P0" in violation.describe()

    def test_table2_witness_reachable(self):
        """The exact Table 2 interleaving appears among the witnesses."""
        result = check_pair("MESI", "MEI", wrapped=False, max_violations=50)
        kinds = {v.kind for v in result.violations}
        assert "swmr" in kinds or "stale-read" in kinds

    @pytest.mark.parametrize("name", NAMES)
    def test_homogeneous_pairs_safe_even_unwrapped(self, name):
        # Identity wrappers are the correct policy for homogeneous
        # platforms, so native snooping must be safe.
        result = check_pair(name, name, wrapped=False)
        assert result.ok, result.render()

    def test_mesi_moesi_unwrapped_is_safe(self):
        # Both speak sharing natively; the wrapper's only job there is
        # to forbid cache-to-cache transfer (a compatibility matter the
        # abstract model does not distinguish).  Matches the simulator
        # ablation.
        assert check_pair("MESI", "MOESI", wrapped=False).ok


class TestRendering:
    def test_safe_render(self):
        text = check_pair("MEI", "MEI").render()
        assert "SAFE" in text and "reachable" in text

    def test_unsafe_render_lists_witnesses(self):
        text = check_pair("MESI", "MEI", wrapped=False).render()
        assert "UNSAFE" in text
        assert "->" in text

    def test_model_state_describe_marks_staleness(self):
        state = ModelState(
            (State.SHARED, State.MODIFIED), (False, True), mem_fresh=False
        )
        text = state.describe()
        assert "stale" in text


class TestAgreementWithSimulator:
    """The abstract model and the simulator must tell the same story."""

    def test_unwrapped_verdicts_match_sequence_demos(self):
        from repro.workloads import table2_demo, table3_demo

        assert not check_pair("MESI", "MEI", wrapped=False).ok
        assert table2_demo(False).stale_reads > 0
        assert not check_pair("MSI", "MESI", wrapped=False).ok
        assert table3_demo(False).stale_reads > 0

    def test_wrapped_verdicts_match_sequence_demos(self):
        from repro.workloads import table2_demo, table3_demo

        assert check_pair("MESI", "MEI", wrapped=True).ok
        assert table2_demo(True).stale_reads == 0
        assert check_pair("MSI", "MESI", wrapped=True).ok
        assert table3_demo(True).stale_reads == 0


class TestNWaySystems:
    """The checker generalizes beyond pairs: N caches, one shared bus."""

    def test_every_wrapped_triple_is_safe(self):
        for triple in itertools.product(NAMES, repeat=3):
            result = check_system(triple, wrapped=True)
            assert result.ok, (triple, result.violations[:1])

    def test_incompatible_triple_unsafe_without_wrappers(self):
        # MESI's silent E-state fill breaks an MEI neighbour at any N.
        result = check_system(("MESI", "MEI", "MEI"), wrapped=False)
        assert not result.ok
        kinds = {v.kind for v in result.violations}
        assert kinds & {"stale-read", "swmr", "lost-data"}

    def test_homogeneous_triple_safe_unwrapped(self):
        for name in NAMES:
            assert check_system((name,) * 3, wrapped=False).ok

    def test_state_space_grows_but_stays_finite(self):
        pair = check_pair("MESI", "MESI")
        triple = check_system(("MESI",) * 3)
        assert triple.reachable_states > pair.reachable_states
        assert triple.reachable_states < 200

    def test_violation_witness_names_the_actor(self):
        # Witness paths use per-actor event names (read0/write2/...),
        # so a three-cache counterexample pinpoints which cache acted.
        result = check_system(("MESI", "MEI", "MEI"), wrapped=False)
        path = result.violations[0].path
        assert all(event[-1].isdigit() for event in path)
        assert any(event.endswith("2") or event.endswith("1") for event in path)

    def test_check_pair_is_the_two_member_system(self):
        direct = check_pair("MESI", "MEI", wrapped=False)
        system = check_system(("MESI", "MEI"), wrapped=False)
        assert direct.reachable_states == system.reachable_states
        assert [v.kind for v in direct.violations] == [
            v.kind for v in system.violations
        ]


class TestDirectoryMode:
    """Presence bits as model state: the directory's listener discipline."""

    def test_every_wrapped_triple_safe_under_directory(self):
        for triple in itertools.product(NAMES, repeat=3):
            result = check_system(triple, wrapped=True, directory=True)
            assert result.ok, (triple, result.violations[:1])

    def test_incompatible_pairs_still_caught(self):
        # Tracking sharers must not mask the protocol-mix bugs the
        # broadcast model finds.
        result = check_system(("MESI", "MEI"), wrapped=False, directory=True)
        assert not result.ok

    def test_presence_adds_no_states(self):
        # The presence vector exactly mirrors line validity, so the
        # directory-mode state space is isomorphic to the snoopy one —
        # the proof that consulting only recorded sharers is complete.
        for triple in (("MESI",) * 3, ("MOESI",) * 3, ("MSI", "MESI", "MOESI")):
            snoopy = check_system(triple, wrapped=True)
            directory = check_system(triple, wrapped=True, directory=True)
            assert directory.reachable_states == snoopy.reachable_states

    def test_result_carries_the_directory_flag(self):
        result = check_system(("MEI", "MEI"), directory=True)
        assert result.directory
        assert "directory" in result.render()
        assert not check_system(("MEI", "MEI")).directory

    def test_describe_renders_presence_bits(self):
        state = ModelState(
            (State.SHARED, State.INVALID),
            (False, False),
            mem_fresh=True,
            present=(True, False),
        )
        assert "dir:" in state.describe()


class _DrainFromClean(MESIProtocol):
    """S --READ--> drain back to S: the re-run window drains again."""

    def snoop(self, state, op):
        if state is State.SHARED and op is SnoopOp.READ:
            return SnoopOutcome(State.SHARED, drain=True, assert_shared=True)
        return super().snoop(state, op)


class _DrainToDirty(MESIProtocol):
    """M --READ--> drain to M: the pushed line is still dirty."""

    def snoop(self, state, op):
        if state is State.MODIFIED and op is SnoopOp.READ:
            return SnoopOutcome(State.MODIFIED, drain=True)
        return super().snoop(state, op)


class TestDefectiveFsm:
    """A drain that leaves a draining line stops the checker, never hangs it."""

    @pytest.mark.parametrize(
        "mutant,state",
        [(_DrainFromClean, State.SHARED), (_DrainToDirty, State.MODIFIED)],
    )
    def test_second_drain_raises(self, mutant, state):
        model = _SystemModel(("MESI", "MESI"), (WrapperPolicy(), WrapperPolicy()))
        model.protocols = (mutant(), model.protocols[1])
        model.steps = (step_for(model.protocols[0], WrapperPolicy()), model.steps[1])
        start = ModelState((state, State.INVALID), (True, False), True, ())
        with pytest.raises(ProtocolError, match="P0: MESI demanded a second drain"):
            model.step(start, "read1")

