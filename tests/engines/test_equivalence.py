"""Batch-engine faithfulness: the acceptance sweep, as a tier-1 test.

The batch engine's contract is that on any serialised trace every
counter except the timing-only ``bus.busy*`` keys matches the exact
engine, as do the final per-master line-state occupancy and every
per-access value (loaded words, pre-swap values).  This suite runs
that comparison over all five generated workload families crossed
with all six protocols (homogeneous pairs), plus heterogeneous mixes
that exercise the reduction wrappers and the i486's split
write-back/write-through (MESI + SI) configuration.

Small caches force evictions and write-backs so the replacement and
drain paths are compared, not just the hit fast path.
"""

import pytest

from repro.core.platform import SHARED_BASE, PlatformConfig
from repro.cpu.presets import preset_generic, preset_intel486
from repro.engines import (
    get_engine,
    reference_config,
    reference_workload,
    serialize_traces,
    serialize_workload,
)
from repro.workloads.tracegen import hotspot_trace

#: timing-only counters the statistics-only engines do not model
TIMING_PREFIXES = ("bus.busy",)

#: the reducible protocols; SI is write-through-only and enters the
#: sweep through the i486's protocol_wt split below — six in total
PROTOCOLS = ("MEI", "MSI", "MESI", "MOESI", "DRAGON")

FAMILIES = {
    "racy": {"kind": "racy", "n": 120, "footprint_words": 16, "seed": 11},
    "false-sharing": {"kind": "false-sharing", "n": 120, "lines": 3,
                      "seed": 5},
    "lock-contention": {"kind": "lock-contention", "n_acquires": 10,
                        "seed": 3},
    "hotspot": {"kind": "hotspot", "n": 150, "footprint_words": 64,
                "seed": 7},
    "producer-consumer": {"kind": "producer-consumer", "n_items": 30},
}


def _strip_timing(stats):
    return {
        k: v for k, v in stats.items()
        if not any(k.startswith(p) for p in TIMING_PREFIXES)
    }


def _pair_config(p0, p1):
    # 1 KB 2-way caches: tiny enough that every family evicts.
    cores = (
        preset_generic("p0", p0, cache_size=1024).with_(cache_ways=2),
        preset_generic("p1", p1, cache_size=1024).with_(cache_ways=2),
    )
    return PlatformConfig(cores=cores, hardware_coherence=True)


def assert_equivalent(config, workload):
    assert_same_replay(config, serialize_workload(workload))


def assert_same_replay(config, accesses):
    exact = get_engine("exact").run(config, accesses)
    batch = get_engine("batch").run(config, accesses)
    assert batch.accesses == exact.accesses == len(accesses)
    assert _strip_timing(batch.stats) == _strip_timing(exact.stats)
    assert batch.line_states == exact.line_states
    assert batch.values == exact.values
    return exact


def test_reference_workload():
    # The workload the hotpath suite times both engines on, at full size.
    assert_same_replay(reference_config(), reference_workload(n=5000))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_family_protocol_sweep(protocol, family):
    assert_equivalent(_pair_config(protocol, protocol), FAMILIES[family])


@pytest.mark.parametrize(
    "pair", [("MESI", "MEI"), ("MOESI", "MSI"), ("MOESI", "MEI")]
)
def test_heterogeneous_mixes_through_the_wrappers(pair):
    # Reduction wrappers rewrite bus ops (read -> read-with-intent) and
    # clamp shared modes; the batch engine must replay those conversions.
    assert_equivalent(
        _pair_config(*pair),
        {"kind": "false-sharing", "n": 140, "lines": 4, "seed": 9},
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_i486_split_writeback_writethrough(family):
    # The Enhanced i486 preset runs MESI on write-back lines and SI on
    # write-through regions — the protocol_wt split.
    config = PlatformConfig(
        cores=(
            preset_intel486("i486").with_(cache_size=1024, cache_ways=2),
            preset_generic("p1", "MESI", cache_size=1024).with_(cache_ways=2),
        ),
        hardware_coherence=True,
    )
    assert_equivalent(config, FAMILIES[family])


def test_software_coherence_mode():
    # hardware_coherence=False: no snooping, no wrappers — the batch
    # engine must still agree on hits/misses/fills.
    config = PlatformConfig(
        cores=(
            preset_generic("p0", "MESI", cache_size=1024),
            preset_generic("p1", "MESI", cache_size=1024),
        ),
        hardware_coherence=False,
    )
    assert_equivalent(config, {"kind": "hotspot", "n": 100,
                               "footprint_words": 32, "seed": 2})


def _shared_hotspot(config, per_master, seed):
    # One shared footprint twice a cache's size, so lines are both
    # contended by several masters and evicted.
    footprint = 2 * config.cores[0].cache_size // 4
    traces = {
        p: hotspot_trace(per_master, footprint, proc=p, base=SHARED_BASE,
                         seed=seed * 16 + p)
        for p in range(len(config.cores))
    }
    return serialize_traces(traces)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eight_master_mixed_storm(seed):
    # Eight masters cycling the four reducible protocols behind their
    # reduction wrappers (the system reduces to MEI): every window
    # snoops seven caches, dirty hits drain under the port-free policy.
    protocols = ("MESI", "MOESI", "MSI", "MEI")
    config = PlatformConfig(
        cores=tuple(
            preset_generic(f"p{i}", protocols[i % 4], cache_size=1024)
            .with_(cache_ways=2)
            for i in range(8)
        ),
        drain_policy="window",
    )
    exact = assert_same_replay(config, _shared_hotspot(config, 120, seed))
    assert exact.stats["bus.retries"] > 0


def test_four_moesi_multi_sharer_supply():
    # Homogeneous MOESI keeps cache-to-cache supply: an owner answers
    # in the same window as several sharers asserting SHARED.
    config = PlatformConfig(
        cores=tuple(
            preset_generic(f"p{i}", "MOESI", cache_size=1024).with_(cache_ways=2)
            for i in range(4)
        ),
    )
    exact = assert_same_replay(config, _shared_hotspot(config, 200, 4))
    assert exact.stats["bus.c2c_supplies"] > 0
