"""Tests for the update-based Dragon protocol extension."""

import pytest

from repro.cache import SnoopOp, State, WriteAction, make_protocol
from repro.cache.protocols.dragon import DragonProtocol
from repro.core import Platform, PlatformConfig, SHARED_BASE, reduce_protocols
from repro.cpu import preset_generic
from repro.errors import IntegrationError, ProtocolError
from repro.verify import CoherenceChecker

M, O, E, S, I = (
    State.MODIFIED,
    State.OWNED,
    State.EXCLUSIVE,
    State.SHARED,
    State.INVALID,
)


class TestFsm:
    def test_registered(self):
        assert make_protocol("DRAGON").name == "DRAGON"

    def test_fill_states(self):
        protocol = DragonProtocol()
        assert protocol.fill_state(False, shared=False) is E
        assert protocol.fill_state(False, shared=True) is S

    def test_no_rwitm(self):
        with pytest.raises(ProtocolError):
            DragonProtocol().fill_state(True, False)

    def test_exclusive_write_is_silent(self):
        state, action = DragonProtocol().write_hit(E)
        assert state is M and action is WriteAction.NONE

    def test_shared_write_broadcasts_update(self):
        state, action = DragonProtocol().write_hit(S)
        assert action is WriteAction.UPDATE

    def test_owner_write_broadcasts_update(self):
        _state, action = DragonProtocol().write_hit(O)
        assert action is WriteAction.UPDATE

    def test_snooped_update_patches_and_demotes_owner(self):
        outcome = DragonProtocol().snoop(O, SnoopOp.UPDATE)
        assert outcome.apply_update
        assert outcome.next_state is S
        assert outcome.assert_shared

    def test_snooped_update_keeps_sharer(self):
        outcome = DragonProtocol().snoop(S, SnoopOp.UPDATE)
        assert outcome.apply_update and outcome.next_state is S

    def test_snooped_read_on_dirty_supplies(self):
        for state in (M, O):
            outcome = DragonProtocol().snoop(state, SnoopOp.READ)
            assert outcome.supply and outcome.next_state is O

    def test_foreign_plain_write_drains_dirty(self):
        outcome = DragonProtocol().snoop(O, SnoopOp.WRITE)
        assert outcome.drain and outcome.next_state is I


def _outsider_pairs():
    # Dragon (update-based) and SI (write-through) sit outside the
    # wrapper algebra: mixing either with an invalidation peer is refused
    # in both operand orders.  Dragon-first cases keep the bare peer name
    # as their id, so those ids stay stable.
    for outsider in ("DRAGON", "SI"):
        for other in ("MEI", "MSI", "MESI", "MOESI", None):
            for pair in ([outsider, other], [other, outsider]):
                ident = (
                    str(other) if pair[0] == "DRAGON" else "-".join(map(str, pair))
                )
                yield pytest.param(pair, id=ident)


class TestReductionBoundary:
    def test_homogeneous_dragon_allowed(self):
        result = reduce_protocols(["DRAGON", "DRAGON"])
        assert result.system_protocol == "DRAGON"
        assert all(policy.is_identity for policy in result.policies)

    @pytest.mark.parametrize("pair", list(_outsider_pairs()))
    def test_mixing_with_invalidation_rejected(self, pair):
        with pytest.raises(IntegrationError):
            reduce_protocols(pair)


def dragon_platform():
    platform = Platform(
        PlatformConfig(
            cores=(
                preset_generic("d0", "DRAGON"),
                preset_generic("d1", "DRAGON"),
            )
        )
    )
    return platform, CoherenceChecker(platform)


def drive(platform, generator):
    proc = platform.sim.process(generator)
    platform.sim.run(detect_deadlock=False)
    return proc.value


class TestPlatform:
    def test_shared_write_updates_peer_in_place(self):
        platform, checker = dragon_platform()
        d0, d1 = platform.controllers

        def scenario():
            yield from d0.read(SHARED_BASE)       # E in d0
            yield from d1.read(SHARED_BASE)       # both S now
            yield from d0.write(SHARED_BASE, 42)  # broadcast update
            value = yield from d1.read(SHARED_BASE)  # hit, patched copy
            return value

        assert drive(platform, scenario()) == 42
        d0_state = platform.controllers[0].line_state(SHARED_BASE)
        d1_state = platform.controllers[1].line_state(SHARED_BASE)
        assert d0_state is O   # Sm: shared, dirty, owner
        assert d1_state is S   # Sc
        checker.check_all_lines()
        assert checker.clean

    def test_update_with_no_sharers_goes_modified(self):
        platform, checker = dragon_platform()
        d0, d1 = platform.controllers

        def scenario():
            yield from d0.read(SHARED_BASE)
            yield from d1.read(SHARED_BASE)
            d1.invalidate_line(SHARED_BASE)       # sharer silently gone
            yield from d0.write(SHARED_BASE, 7)   # update finds nobody
            return True

        drive(platform, scenario())
        assert platform.controllers[0].line_state(SHARED_BASE) is M
        checker.check_all_lines()
        assert checker.clean

    def test_updates_replace_invalidations_on_bus(self):
        """Write ping-pong: Dragon uses updates, MESI uses refills."""
        def ping_pong(protocol):
            platform = Platform(
                PlatformConfig(
                    cores=(
                        preset_generic("c0", protocol),
                        preset_generic("c1", protocol),
                    )
                )
            )
            c0, c1 = platform.controllers

            def scenario():
                yield from c0.read(SHARED_BASE)
                yield from c1.read(SHARED_BASE)
                for i in range(6):
                    writer = c0 if i % 2 == 0 else c1
                    reader = c1 if i % 2 == 0 else c0
                    yield from writer.write(SHARED_BASE, i)
                    value = yield from reader.read(SHARED_BASE)
                    assert value == i

            platform.sim.process(scenario())
            platform.sim.run(detect_deadlock=False)
            return platform.stats

        dragon_stats = ping_pong("DRAGON")
        mesi_stats = ping_pong("MESI")
        # Dragon: after the initial fills, everything is word updates.
        assert dragon_stats.get("bus.op.update") == 6
        assert dragon_stats.get("bus.op.read-line") == 2
        # MESI: every write invalidates, every read refills.
        assert mesi_stats.get("bus.op.update") == 0
        assert mesi_stats.get("bus.op.read-line") > 2

    def test_owner_eviction_writes_back(self):
        platform, checker = dragon_platform()
        d0, d1 = platform.controllers

        def scenario():
            yield from d0.read(SHARED_BASE)
            yield from d1.read(SHARED_BASE)
            yield from d0.write(SHARED_BASE, 99)   # d0 becomes owner
            yield from d0.flush_line(SHARED_BASE)  # owner leaves
            return True

        drive(platform, scenario())
        assert platform.memory.peek(SHARED_BASE) == 99
        checker.check_all_lines()
        assert checker.clean

    def test_dirty_handoff_via_supply(self):
        platform, checker = dragon_platform()
        d0, d1 = platform.controllers

        def scenario():
            yield from d0.read(SHARED_BASE)
            yield from d0.write(SHARED_BASE, 5)     # M in d0
            value = yield from d1.read(SHARED_BASE)  # supplied c2c
            return value

        assert drive(platform, scenario()) == 5
        assert platform.controllers[0].line_state(SHARED_BASE) is O
        assert platform.controllers[1].line_state(SHARED_BASE) is S
        assert platform.stats.get("bus.c2c_supplies") == 1
        checker.check_all_lines()
        assert checker.clean

    def test_write_miss_fills_then_updates(self):
        platform, checker = dragon_platform()
        d0, d1 = platform.controllers

        def scenario():
            yield from d1.read(SHARED_BASE)        # d1 has a copy
            yield from d0.write(SHARED_BASE, 3)    # d0 misses: fill + update
            value = yield from d1.read(SHARED_BASE)
            return value

        assert drive(platform, scenario()) == 3
        checker.check_all_lines()
        assert checker.clean
