"""Golden-trace determinism gate for the kernel/cache/tracing fast paths.

The hot-path optimisations (same-tick run queue, dict-indexed tag
lookup, zero-cost trace channels) must keep event ordering *byte
identical*: this test runs a fixed Table-2-flavoured workload with
every trace channel enabled and compares the full ``TraceRecord``
stream and the headline statistics against snapshots committed under
``tests/integration/golden/`` (generated from the pre-optimisation
seed).  Any reordering of same-tick events, any change to snoop or
drain sequencing, and any lost or duplicated record fails this test.

Regenerate (only for an *intentional* semantic change)::

    PYTHONPATH=src python tests/integration/test_golden_trace.py --regen
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cpu.presets import preset_arm920t, preset_generic
from repro.engines import kernel_is_native
from repro.workloads.microbench import MicrobenchSpec, run_microbench

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
TRACE_FILE = os.path.join(GOLDEN_DIR, "table2_wcs_trace.txt")
STATS_FILE = os.path.join(GOLDEN_DIR, "table2_wcs_stats.json")

#: every channel the platform components emit on
ALL_CHANNELS = ("bus", "cache", "irq", "mem", "core")

#: the kernel engine these tests run on.  It stays a parameter so each
#: test id names it: a native build (tools/build_native.py) runs the same
#: ids as the pure-Python modules, and ``kernel_label`` says which ran
KERNEL_ENGINE_PARAMS = ("exact",)


def kernel_label(engine: str) -> str:
    """``exact kernel (native)`` or ``exact kernel (pure Python)``."""
    build = "native" if kernel_is_native() else "pure Python"
    return f"{engine} kernel ({build})"


def run_golden_workload():
    """The fixed workload: Table-2 protocol pair + a snooped ARM920T.

    Small caches force evictions and write-backs; the non-coherent
    ARM920T brings the TAG CAM, ARTRY back-off and nFIQ/ISR machinery
    into the trace; the MESI + MEI pair is the paper's Table 2 pairing.
    """
    spec = MicrobenchSpec(
        scenario="wcs",
        solution="proposed",
        lines=12,
        exec_time=2,
        iterations=3,
    )
    cores = (
        preset_generic("p1", "MESI", cache_size=1024),
        preset_arm920t("p2").with_(cache_size=1024, cache_ways=4),
    )
    result = run_microbench(
        spec,
        cores=cores,
        keep_platform=True,
        trace_channels=ALL_CHANNELS,
    )
    trace_text = result.platform.tracer.format()
    stats = dict(sorted(result.stats.items()))
    stats["__elapsed_ns__"] = result.elapsed_ns
    stats["__isr_entries__"] = result.isr_entries
    stats["__trace_records__"] = len(result.platform.tracer.records)
    return trace_text, stats


@pytest.mark.parametrize("engine", KERNEL_ENGINE_PARAMS)
def test_trace_stream_matches_golden(engine):
    trace_text, _stats = run_golden_workload()
    with open(TRACE_FILE) as handle:
        golden = handle.read().rstrip("\n")
    assert trace_text == golden, (
        f"{kernel_label(engine)}: TraceRecord stream diverged from the "
        "committed golden trace — event ordering is no longer "
        "byte-identical"
    )


@pytest.mark.parametrize("engine", KERNEL_ENGINE_PARAMS)
def test_headline_stats_match_golden(engine):
    _trace, stats = run_golden_workload()
    with open(STATS_FILE) as handle:
        golden = json.load(handle)
    assert stats == golden, (
        f"{kernel_label(engine)}: headline statistics diverged from the "
        "committed golden snapshot"
    )


def _regen():  # pragma: no cover - maintenance helper
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    trace_text, stats = run_golden_workload()
    with open(TRACE_FILE, "w") as handle:
        handle.write(trace_text + "\n")
    with open(STATS_FILE, "w") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TRACE_FILE} ({len(trace_text.splitlines())} records)")
    print(f"wrote {STATS_FILE} ({len(stats)} counters)")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
