"""The paper's evaluation as a committed suite: ``repro bench paper``.

Every result of Section 4 that this reproduction regenerates — Tables
2 and 3, the Fig 4 deadlock and its remedies, Figures 5-8, the quoted
headline numbers — plus the ablations, extensions, application kernels
and trace sweeps that explain them, at the paper's own parameters
(lines 1-32, exec_time 1/2/4, 8 lock tenures; Fig 8 penalties 13-96
at 1 and 32 lines).  Each row is one simulated quantity, identified by
its ``experiment`` and ``point``.  The simulations are deterministic,
so the committed ``BENCH_paper.json`` is a golden file checked
exactly, and :func:`paper_invariants` holds every run to the paper's
claims (who wins, by roughly what factor, which way the trend goes)
on each ``--check``.

The suite has one configuration.  Every invariant reads the rows at
the paper's parameters, and a shrunk run would hold them vacuously, so
``--quick`` does not shrink it.

Every experiment whose simulations are runner jobs (Figures 5-8, the
headlines, the swept ablations) submits them to one
:class:`~repro.exp.runner.SweepRunner`.  ``--jobs N`` fans them over N
worker processes and ``--cache-dir DIR`` answers repeats from the
on-disk result cache, writing the run manifest to
``DIR/manifest.json``.  The runner simulates each distinct payload
once, so the headline numbers are answered from the figures' jobs.
Results come back in submission order: every setting writes the same
rows.
"""

from __future__ import annotations

import os
import sys
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..analysis import (
    ablation_arbitration,
    ablation_interrupt,
    ablation_locks,
    ablation_wrapper,
    compute_headlines,
    figure5_wcs,
    figure6_bcs,
    figure7_tcs,
    figure8_miss_penalty,
)
from ..core.deadlock import SOLUTIONS, run_deadlock_demo
from ..core.platform import SHARED_BASE, Platform, PlatformConfig
from ..cpu.presets import preset_arm920t, preset_generic, preset_powerpc755
from ..io import attach_dma
from ..workloads import (
    MicrobenchSpec,
    run_jacobi,
    run_microbench,
    run_reduction,
    run_token_ring,
    table2_demo,
    table3_demo,
)
from ..workloads.tracegen import (
    TraceAccess,
    producer_consumer_trace,
    random_trace,
    replay_trace,
    sequential_trace,
    strided_trace,
)
from .bench import EXACT, BenchSuite
from .runner import SweepRunner

__all__ = ["SUITE", "paper_invariants", "run_suite"]

LINE_COUNTS = (1, 2, 4, 8, 16, 32)
EXEC_TIMES = (1, 2, 4)
PENALTIES = (13, 26, 48, 72, 96)
ITERATIONS = 8
KERNEL_SOLUTIONS = ("disabled", "software", "proposed")
FOOTPRINTS = (64, 128, 256, 512, 1024)
STRIDES = (4, 8, 16, 32, 64)

BCS_32 = "BCS 32 lines, exec_time=1: proposed speedup vs software"
BCS_96 = "BCS 32 lines, 96-cycle miss penalty: speedup vs software"
WCS_ET4 = "WCS exec_time=4: proposed improvement vs cache-disabled"

Rows = Iterator[Tuple[str, Any]]
#: an experiment takes the suite's one runner and yields its rows
Experiment = Callable[[SweepRunner], Rows]


# ---------------------------------------------------------------------------
# the experiments: each yields (point, simulated value)
# ---------------------------------------------------------------------------
def _scenario(figure: Callable, runner: SweepRunner) -> Rows:
    """Figures 5-7: execution-time ratio vs cache-disabled per cell."""
    data = figure(
        line_counts=LINE_COUNTS, exec_times=EXEC_TIMES, iterations=ITERATIONS,
        runner=runner,
    )
    for series in data.series:
        for lines, ratio in series.points.items():
            yield f"{series.name} lines={lines}", ratio


def _fig8(runner: SweepRunner) -> Rows:
    """Figure 8: proposed over software as the miss penalty grows."""
    data = figure8_miss_penalty(
        penalties=PENALTIES, line_counts=(1, 32),
        scenarios=("wcs", "tcs", "bcs"), iterations=ITERATIONS, runner=runner,
    )
    for series in data.series:
        for penalty, ratio in series.points.items():
            yield f"{series.name} penalty={penalty}", ratio


def _headlines(runner: SweepRunner) -> Rows:
    """Every headline job is also a Fig 5-8 job: the runner answers
    them from the figures' results."""
    for headline in compute_headlines(iterations=ITERATIONS, lines=32, runner=runner):
        yield headline.claim, headline.measured


def _fig4() -> Rows:
    for solution in SOLUTIONS:
        yield f"{solution} deadlocked", run_deadlock_demo(solution).deadlocked


def _sequence(demo: Callable) -> Rows:
    """Tables 2/3: the a-d sequence without and with the wrappers."""
    for wrapped in (False, True):
        result = demo(wrapped)
        mode = "wrapped" if wrapped else "unwrapped"
        yield f"{mode} stale_reads", result.stale_reads
        yield f"{mode} violations", len(result.violations)
        yield f"{mode} system_protocol", result.system_protocol
        for step in result.steps:
            letter = chr(ord("a") + step.index)
            yield f"{mode} {letter} states", ",".join(step.states)


def _ablation(ablation: Callable, runner: SweepRunner, **params) -> Rows:
    for row in ablation(runner=runner, **params):
        yield row.label, row.value


def _in_process(rows_of: Callable[[], Rows]) -> Experiment:
    """An experiment that builds its own platforms: it submits no
    runner jobs."""
    return lambda runner: rows_of()


def _cache_capacity() -> Rows:
    """Fig 8's "cache line replacements": BCS with the ARM cache large
    enough for the 32-line block, then shrunk until it thrashes."""
    spec = MicrobenchSpec("bcs", "software", lines=32, iterations=6)
    for label, cache_size in (("fits", 16 * 1024), ("thrashes", 512)):
        cores = (
            preset_powerpc755(),
            preset_arm920t().with_(cache_size=cache_size, cache_ways=4),
        )
        for solution in ("software", "proposed"):
            result = run_microbench(spec.with_(solution=solution), cores=cores)
            yield f"{label} {solution}", result.elapsed_ns


def _dma_copy(dma, controller):
    yield from controller.write(SHARED_BASE, 0xC0DE)  # dirty in the cache
    yield dma.start_transfer(SHARED_BASE, SHARED_BASE + 0x1000, 32)


def _dma() -> Rows:
    """Section 5's I/O coherence: a DMA copy of a line dirty in a cache,
    through the snooped bus and past it."""
    for hardware in (True, False):
        platform = Platform(
            PlatformConfig(
                cores=(preset_generic("p0", "MESI"), preset_generic("p1", "MEI")),
                hardware_coherence=hardware,
            )
        )
        dma = attach_dma(platform)
        platform.sim.process(_dma_copy(dma, platform.controllers[0]))
        platform.sim.run(detect_deadlock=False)
        copied = platform.memory.peek(SHARED_BASE + 0x1000)
        yield f"hardware_coherence={hardware} copied", copied


def _update_vs_invalidate(rounds: int = 12) -> Rows:
    """A write ping-pong on one word: Dragon's updates vs invalidation."""
    trace = [TraceAccess(0, "read", SHARED_BASE), TraceAccess(1, "read", SHARED_BASE)]
    for i in range(rounds):
        writer, reader = (0, 1) if i % 2 == 0 else (1, 0)
        trace += [
            TraceAccess(writer, "write", SHARED_BASE, i),
            TraceAccess(reader, "read", SHARED_BASE),
        ]
    for protocol in ("MESI", "MOESI", "DRAGON"):
        platform = Platform(
            PlatformConfig(
                cores=(preset_generic("c0", protocol), preset_generic("c1", protocol))
            )
        )
        yield f"{protocol} elapsed_ns", replay_trace(platform, trace).elapsed_ns
        for name, counter in (
            ("fills", "bus.op.read-line"),
            ("updates", "bus.op.update"),
            ("c2c supplies", "bus.c2c_supplies"),
            ("invalidates", "bus.op.invalidate"),
        ):
            yield f"{protocol} {name}", platform.stats.get(counter)


def _scaling() -> Rows:
    """WCS with 2, 3 and 4 processors rotating through one lock."""
    extra = (preset_generic("mcu", "MESI"), preset_generic("dsp", "MOESI"))
    spec = MicrobenchSpec("wcs", "proposed", lines=4, iterations=4)
    for count in (2, 3, 4):
        cores = (preset_powerpc755(), preset_arm920t()) + extra[: count - 2]
        for solution in ("proposed", "software"):
            result = run_microbench(spec.with_(solution=solution), cores=cores)
            yield f"{count} processors {solution}", result.elapsed_ns


def _kernel(runs: Callable[[], Iterator[Tuple[str, Any]]]) -> Rows:
    for key, result in runs():
        yield f"{key} elapsed_ns", result.elapsed_ns
        yield f"{key} correct", result.correct


def _mesi_pair() -> Platform:
    return Platform(
        PlatformConfig(
            cores=(
                preset_generic("p0", "MESI", cache_size=1024),
                preset_generic("p1", "MESI", cache_size=1024),
            )
        )
    )


def _working_set() -> Rows:
    """Hit rate as a random footprint outgrows a 256-word cache."""
    for footprint in FOOTPRINTS:
        trace = random_trace(1200, footprint, seed=7)
        yield f"footprint={footprint} hit_rate", replay_trace(_mesi_pair(), trace).hit_rate


def _strides() -> Rows:
    for stride in STRIDES:
        trace = strided_trace(256, stride)
        yield f"stride={stride} hit_rate", replay_trace(_mesi_pair(), trace).hit_rate


def _sharing() -> Rows:
    """A producer-consumer word handoff vs a private sequential walk."""
    for label, trace in (
        ("producer-consumer", producer_consumer_trace(64)),
        ("private", sequential_trace(128, write_every=2)),
    ):
        result = replay_trace(_mesi_pair(), trace)
        yield f"{label} fills", result.fills
        yield f"{label} elapsed_ns", result.elapsed_ns


EXPERIMENTS: Dict[str, Experiment] = {
    "fig4": _in_process(_fig4),
    "fig5": partial(_scenario, figure5_wcs),
    "fig6": partial(_scenario, figure6_bcs),
    "fig7": partial(_scenario, figure7_tcs),
    "fig8": _fig8,
    "headlines": _headlines,
    "table2": _in_process(partial(_sequence, table2_demo)),
    "table3": _in_process(partial(_sequence, table3_demo)),
    "ablation-wrapper": partial(_ablation, ablation_wrapper),
    "ablation-interrupt": partial(
        _ablation, ablation_interrupt, entry_cycles=(1, 4, 8, 16), lines=8,
        iterations=6,
    ),
    "ablation-locks": partial(
        _ablation, ablation_locks, kinds=("swap", "bakery", "hw"), lines=8,
        iterations=6,
    ),
    "ablation-arbitration": partial(
        _ablation, ablation_arbitration, lines=8, iterations=6
    ),
    "ablation-capacity": _in_process(_cache_capacity),
    "ext-dma": _in_process(_dma),
    "ext-update": _in_process(_update_vs_invalidate),
    "ext-scaling": _in_process(_scaling),
    "kernel-reduction": _in_process(partial(_kernel, lambda: (
        (s, run_reduction(2, 128, s)) for s in KERNEL_SOLUTIONS
    ))),
    "kernel-jacobi": _in_process(partial(_kernel, lambda: (
        (s, run_jacobi(2, 32, sweeps=6, solution=s)) for s in KERNEL_SOLUTIONS
    ))),
    "kernel-token-ring": _in_process(partial(_kernel, lambda: (
        (f"{n} cores", run_token_ring(n, laps=4)) for n in (2, 3, 4)
    ))),
    "trace-knee": _in_process(_working_set),
    "trace-stride": _in_process(_strides),
    "trace-sharing": _in_process(_sharing),
}


def run_suite(
    quick: bool = False, jobs: int = 1, cache_dir: Optional[str] = None
) -> Dict[str, Any]:
    """Every experiment at the paper's parameters through one runner of
    ``jobs`` workers; returns the result document.  With ``cache_dir``
    the runner caches there and its manifest is written to
    ``<cache_dir>/manifest.json``.  ``quick`` is accepted and ignored
    (see the module docstring)."""
    runner = SweepRunner(jobs=jobs, cache_dir=cache_dir)
    rows = [
        {"experiment": experiment, "point": point, "value": value}
        for experiment, rows_of in EXPERIMENTS.items()
        for point, value in rows_of(runner)
    ]
    if cache_dir is not None:
        runner.write_manifest(os.path.join(cache_dir, "manifest.json"))
    print(f"paper runner: {runner.summary()}")
    return {
        "schema": 1,
        "suite": "paper",
        "quick": False,
        "python": sys.version.split()[0],
        "params": {
            "line_counts": list(LINE_COUNTS),
            "exec_times": list(EXEC_TIMES),
            "penalties": list(PENALTIES),
            "iterations": ITERATIONS,
        },
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# the paper's claims
# ---------------------------------------------------------------------------
def _speedup(v, figure: str, lines: int) -> float:
    """1 - proposed/software at exec_time=1."""
    cell = f"et=1 lines={lines}"
    return 1 - v(figure, f"proposed {cell}") / v(figure, f"software {cell}")


def _claims(v) -> Iterator[Tuple[str, bool]]:
    """(message, holds) for every claim; ``v(experiment, point)`` reads
    a row's value."""
    yield "fig4: cached locks must deadlock", v("fig4", "none deadlocked") is True
    for remedy in ("uncached-locks", "lock-register", "bakery"):
        yield (f"fig4: {remedy} must not deadlock",
               v("fig4", f"{remedy} deadlocked") is False)

    for figure in ("fig5", "fig6", "fig7"):
        for exec_time in EXEC_TIMES:
            for lines in LINE_COUNTS:
                cell = f"et={exec_time} lines={lines}"
                proposed = v(figure, f"proposed {cell}")
                software = v(figure, f"software {cell}")
                if figure == "fig5":
                    yield (f"fig5 {cell}: caching must beat cache-disabled "
                           f"(proposed {proposed:.3f}, software {software:.3f})",
                           proposed < 1.0 and software < 1.0)
                    yield (f"fig5 {cell}: proposed {proposed:.3f} must stay "
                           f"below 1.02x software {software:.3f}",
                           proposed < software * 1.02)
                else:
                    yield (f"{figure} {cell}: proposed {proposed:.3f} must "
                           f"beat software {software:.3f}", proposed < software)
    et4, et1 = v("fig5", "proposed et=4 lines=32"), v("fig5", "proposed et=1 lines=32")
    yield (f"fig5: proposed at 32 lines must improve with exec_time "
           f"(et=4 {et4:.3f}, et=1 {et1:.3f})", et4 < et1)
    speedups = [_speedup(v, "fig6", lines) for lines in LINE_COUNTS]
    yield (f"fig6: bcs speedup must not fall as lines grow "
           f"({', '.join(f'{s:.3f}' for s in speedups)})",
           speedups == sorted(speedups))
    yield (f"fig6: 0.30 <= bcs_speedup_32 ({speedups[-1]:.3f}) <= 0.50",
           0.30 <= speedups[-1] <= 0.50)
    tcs = _speedup(v, "fig7", 32)
    yield f"fig7: 0.10 <= tcs_speedup_32 ({tcs:.3f}) <= 0.45", 0.10 <= tcs <= 0.45

    def ratio(scenario: str, lines: int, penalty: int) -> float:
        return v("fig8", f"{scenario} lines={lines} penalty={penalty}")

    for scenario in ("bcs", "tcs"):
        for lines in (1, 32):
            slow, fast = ratio(scenario, lines, 96), ratio(scenario, lines, 13)
            yield (f"fig8 {scenario} lines={lines}: ratio at 96 cycles "
                   f"({slow:.3f}) must beat 13 cycles ({fast:.3f})", slow < fast)
    bcs96 = 1 - ratio("bcs", 32, 96)
    yield (f"fig8: 0.6 <= bcs_speedup_32_at_96 ({bcs96:.3f}) <= 0.85",
           0.6 <= bcs96 <= 0.85)
    for penalty in PENALTIES:
        wcs = ratio("wcs", 32, penalty)
        yield (f"fig8: 0.9 <= wcs_ratio_32 at {penalty} cycles ({wcs:.3f}) <= 1.05",
               0.9 <= wcs <= 1.05)

    for claim, paper in ((BCS_32, 38.22), (BCS_96, 76.0)):
        measured = v("headlines", claim)
        yield (f"headlines: {claim} {measured:.2f} % must be within 10 "
               f"points of the paper's {paper} %", abs(measured - paper) < 10)
    wcs4 = v("headlines", WCS_ET4)
    yield f"headlines: {WCS_ET4} {wcs4:.2f} % must exceed 50 %", wcs4 > 50

    for table, step, states, system, absent in (
        ("table2", "d", "S,M", "MEI", "S"),
        ("table3", "b", "S,E", "MSI", "E"),
    ):
        yield (f"{table}: unwrapped must read stale data once",
               v(table, "unwrapped stale_reads") == 1)
        yield (f"{table}: unwrapped step {step} must reach {states}",
               v(table, f"unwrapped {step} states") == states)
        yield (f"{table}: wrapped must read no stale data",
               v(table, "wrapped stale_reads") == 0)
        yield (f"{table}: wrapped system protocol must be {system}",
               v(table, "wrapped system_protocol") == system)
        yield (f"{table}: no wrapped step may reach {absent}", all(
            absent not in v(table, f"wrapped {letter} states").split(",")
            for letter in "abcd"
        ))
    yield ("table2: wrapped must record no violations",
           v("table2", "wrapped violations") == 0)

    def stale(pair: str) -> int:
        return v("ablation-wrapper", f"{pair}: stale reads")

    for pair in ("MESI+MEI", "MSI+MESI"):
        yield (f"ablation-wrapper: {pair} unwrapped must read stale data",
               stale(f"{pair} unwrapped") >= 1)
        yield (f"ablation-wrapper: {pair} wrapped must read no stale data",
               stale(f"{pair} wrapped") == 0)
    yield ("ablation-wrapper: MESI+MOESI wrapped must read no stale data",
           stale("MESI+MOESI wrapped") == 0)
    entry = [
        v("ablation-interrupt", f"WCS proposed, interrupt entry = {cycles} cycles")
        for cycles in (1, 4, 8, 16)
    ]
    yield (f"ablation-interrupt: run time must not fall as interrupt entry "
           f"slows ({entry})", entry == sorted(entry))
    hw, swap, bakery = (
        v("ablation-locks", f"TCS proposed, {kind} lock")
        for kind in ("hw", "swap", "bakery")
    )
    yield (f"ablation-locks: hw lock ({hw} ns) must be no slower than swap "
           f"lock ({swap} ns)", hw <= swap)
    yield (f"ablation-locks: swap lock ({swap} ns) must be no slower than "
           f"bakery lock ({bakery} ns)", swap <= bakery)
    for policy in ("fixed", "round-robin"):
        yield (f"ablation-arbitration: {policy} must take simulated time",
               v("ablation-arbitration", f"WCS proposed, {policy} arbitration") > 0)
    fits, thrashes = (
        100 * (1 - v("ablation-capacity", f"{label} proposed")
               / v("ablation-capacity", f"{label} software"))
        for label in ("fits", "thrashes")
    )
    yield (f"ablation-capacity: speedup when the block fits ({fits:.1f} %) "
           "must exceed 25 %", fits > 25)
    yield (f"ablation-capacity: speedup when it thrashes ({thrashes:.1f} %) "
           f"must be under half the fitting one", thrashes < fits / 2)

    yield ("ext-dma: a coherent DMA must copy the dirty word",
           v("ext-dma", "hardware_coherence=True copied") == 0xC0DE)
    yield ("ext-dma: an incoherent DMA must copy stale memory",
           v("ext-dma", "hardware_coherence=False copied") == 0)
    yield "ext-update: DRAGON must fill twice", v("ext-update", "DRAGON fills") == 2
    yield ("ext-update: DRAGON must update 12 times",
           v("ext-update", "DRAGON updates") == 12)
    yield "ext-update: MESI must not update", v("ext-update", "MESI updates") == 0
    yield ("ext-update: DRAGON must finish before MESI",
           v("ext-update", "DRAGON elapsed_ns") < v("ext-update", "MESI elapsed_ns"))
    times = [v("ext-scaling", f"{n} processors proposed") for n in (2, 3, 4)]
    yield (f"ext-scaling: proposed time must not fall as processors are "
           f"added ({times})", times == sorted(times))

    for kernel, keys in (
        ("kernel-reduction", KERNEL_SOLUTIONS),
        ("kernel-jacobi", KERNEL_SOLUTIONS),
        ("kernel-token-ring", ("2 cores", "3 cores", "4 cores")),
    ):
        for key in keys:
            yield (f"{kernel}: {key} must compute the reference result",
                   v(kernel, f"{key} correct") is True)
    red = {s: v("kernel-reduction", f"{s} elapsed_ns") for s in KERNEL_SOLUTIONS}
    yield (f"kernel-reduction: proposed ({red['proposed']}) < software "
           f"({red['software']}) < disabled ({red['disabled']})",
           red["proposed"] < red["software"] < red["disabled"])
    jacobi = {s: v("kernel-jacobi", f"{s} elapsed_ns") for s in KERNEL_SOLUTIONS}
    yield (f"kernel-jacobi: proposed ({jacobi['proposed']}) < software "
           f"({jacobi['software']})", jacobi["proposed"] < jacobi["software"])

    rates = [v("trace-knee", f"footprint={fp} hit_rate") for fp in FOOTPRINTS]
    yield (f"trace-knee: hit rate must not rise with the footprint "
           f"({', '.join(f'{r:.3f}' for r in rates)})",
           rates == sorted(rates, reverse=True))
    yield (f"trace-knee: a fitting footprint must hit > 0.95 ({rates[0]:.3f})",
           rates[0] > 0.95)
    yield (f"trace-knee: 4x the cache must hit < 0.5 ({rates[-1]:.3f})",
           rates[-1] < 0.5)
    by_stride = {s: v("trace-stride", f"stride={s} hit_rate") for s in STRIDES}
    yield ("trace-stride: word stride must hit the most",
           by_stride[4] == max(by_stride.values()))
    for stride in (32, 64):
        yield (f"trace-stride: stride {stride} must never hit",
               by_stride[stride] == 0.0)
    for field in ("fills", "elapsed_ns"):
        shared = v("trace-sharing", f"producer-consumer {field}")
        private = v("trace-sharing", f"private {field}")
        yield (f"trace-sharing: producer-consumer {field} ({shared}) must "
               f"exceed the private walk's ({private})", shared > private)


def paper_invariants(document: Dict[str, Any]) -> List[str]:
    """The paper's claims ``document`` breaks (empty = all hold)."""
    values = {(row["experiment"], row["point"]): row["value"] for row in document["rows"]}

    def v(experiment: str, point: str) -> Any:
        return values[(experiment, point)]

    failures: List[str] = []
    try:
        failures.extend(message for message, holds in _claims(v) if not holds)
    except KeyError as missing:
        failures.append(f"row {'@'.join(missing.args[0])} is missing")
    return failures


SUITE = BenchSuite(
    name="paper",
    bench_file="BENCH_paper.json",
    run=run_suite,
    rows="rows",
    key=("experiment", "point"),
    checks={"*": {"value": EXACT}},
    columns=("value",),
    options=("jobs", "cache_dir"),
    invariants=paper_invariants,
)
