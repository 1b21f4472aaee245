"""Regression test for the lost-upgrade race (found by the fuzzer).

Two masters that both hold a line SHARED and write *different words of
it* at the same instant both issue address-only upgrades.  One wins
and dirties the line; the loser's request is now stale — if it still
reaches the bus it invalidates the winner's MODIFIED line, and on
tables whose invalidate-snoop does not drain dirty lines (MOESI
assumes the initiator holds current data) the freshly-written word is
silently lost: the loser's refill reads stale memory and the next
reader sees the reset value.  The bus therefore re-validates upgrades
at grant time and cancels the loser before any snooper sees it — the
hardware conversion of a lost BusUpgr into a full
read-with-intent-to-modify.

Found by the fuzz campaign (seed=42, case 52: wrapped MOESI+MOESI
false sharing); this is the shrunk deterministic interleaving.
"""

import pytest

from repro.core import SHARED_BASE, Platform, PlatformConfig
from repro.cpu import preset_generic
from repro.verify import CoherenceChecker

from .test_golden_trace import KERNEL_ENGINE_PARAMS, kernel_label

WORD0 = SHARED_BASE          # p0's word
WORD1 = SHARED_BASE + 4      # p1's word, same cache line
RACE_AT = 10_000             # both upgrades issued at this instant


def run_race(pair):
    platform = Platform(
        PlatformConfig(
            cores=(preset_generic("p0", pair[0]), preset_generic("p1", pair[1])),
            hardware_coherence=True,
        )
    )
    checker = CoherenceChecker(platform)
    controllers = platform.controllers
    sim = platform.sim

    def driver(proc, addr, value):
        # Fill the line (both end SHARED), then both write their own
        # word at exactly RACE_AT: two simultaneous upgrade decisions,
        # one of which must lose the bus race.
        yield from controllers[proc].read(addr)
        yield sim.timeout(RACE_AT - sim.now)
        yield from controllers[proc].write(addr, value)
        yield from controllers[proc].read(WORD0)

    procs = [
        sim.process(driver(0, WORD0, 111), name="p0"),
        sim.process(driver(1, WORD1, 222), name="p1"),
    ]
    sim.run(stop_event=sim.all_of(procs), max_events=100_000)
    return platform, checker


@pytest.mark.parametrize("engine", KERNEL_ENGINE_PARAMS)
@pytest.mark.parametrize(
    "pair",
    [("MESI", "MESI"), ("MOESI", "MOESI"), ("MSI", "MSI"), ("MSI", "MOESI")],
)
def test_concurrent_upgrades_do_not_lose_data(pair, engine):
    platform, checker = run_race(pair)
    checker.check_all_lines()
    assert checker.clean, (kernel_label(engine),
                           [str(v) for v in checker.violations])


@pytest.mark.parametrize("engine", KERNEL_ENGINE_PARAMS)
def test_lost_upgrade_is_cancelled_before_snooping(engine):
    platform, checker = run_race(("MOESI", "MOESI"))
    # The loser must be cancelled at grant time and redone as a full
    # miss — never broadcast as a stale invalidate.
    assert platform.stats.get("bus.cancelled") >= 1
    races = sum(platform.stats.get(f"p{i}.upgrade_races") for i in range(2))
    assert races >= 1
    checker.check_all_lines()
    assert checker.clean, kernel_label(engine)
