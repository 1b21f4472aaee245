"""Cross-engine comparison: the same workload through every engine.

Runs the reference workload (two MESI masters, hotspot mix) through
each engine in ``ENGINES`` and tabulates throughput plus agreement with
the exact engine — the table EXPERIMENTS.md quotes.  Doubles as an
end-to-end faithfulness run: the batch engine must reproduce the exact
engine's counters, final line states and load values.  The native
column is each engine's fingerprint: whether compiled hot modules
(``tools/build_native.py``) backed the run.
"""

from __future__ import annotations

from conftest import report, run_once

from repro.engines import ENGINES, reference_config, reference_workload

#: timing-only counters the statistics-only engines do not model
TIMING_KEYS = ("bus.busy",)

N_ACCESSES = 5_000
REPEATS = 3


def _comparable(stats):
    return {
        k: v for k, v in stats.items()
        if not any(k.startswith(p) for p in TIMING_KEYS)
    }


def _run_all():
    config = reference_config()
    accesses = reference_workload(n=N_ACCESSES)
    results = {}
    walls = {}
    for name, engine in ENGINES.items():
        best = None
        for _ in range(REPEATS):
            result = engine.run(config, accesses)
            best = result.wall_s if best is None else min(best, result.wall_s)
        results[name] = result
        walls[name] = best
    return accesses, results, walls


def _render(accesses, results, walls):
    exact = results["exact"]
    lines = [
        f"{'engine':<10} {'native':<7} {'accesses/s':>12} "
        f"{'speedup':>8} {'agrees with exact':>18}"
    ]
    for name, result in results.items():
        native = ENGINES[name].fingerprint()["native"]
        agree = (
            _comparable(result.stats) == _comparable(exact.stats)
            and result.line_states == exact.line_states
            and result.values == exact.values
        )
        lines.append(
            f"{name:<10} {str(native).lower():<7} "
            f"{len(accesses) / walls[name]:>12,.0f} "
            f"{walls['exact'] / walls[name]:>7.1f}x "
            f"{'yes' if agree else 'NO':>18}"
        )
    return "\n".join(lines)


def test_engine_comparison(benchmark):
    accesses, results, walls = run_once(benchmark, _run_all)
    report(benchmark, "Cross-engine comparison (reference workload)",
           _render(accesses, results, walls))
    exact = results["exact"]
    for name, result in results.items():
        assert _comparable(result.stats) == _comparable(exact.stats), name
        assert result.line_states == exact.line_states, name
        assert result.values == exact.values, name
    # The fast path must actually be fast.
    assert walls["batch"] < walls["exact"]
