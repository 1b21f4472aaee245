"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Execute the Table 2 / Table 3 sequences with and without wrappers.
``deadlock``
    Run the Fig 4 scenario under all four lock strategies.
``faults``
    Run the fault-injection matrix: every registered fault class is
    armed against a contended workload and must be classified
    detected-by-watchdog, detected-by-checker, retry-ceiling, or
    benign.  ``--list`` prints the matrix without running; ``--dump``
    writes the JSON report (watchdog dumps included); exits non-zero
    on any classification mismatch.
``reduce P1 P2 [P3...]``
    Print the integrated protocol and wrapper policies for a protocol
    mix (use ``none`` for a processor without coherence hardware).
``bench SCENARIO SOLUTION``
    Run one microbenchmark configuration and print its statistics.
``bench {hotpath,scaleout,fabrics,service,paper}``
    Run one committed BENCH suite through the shared driver
    (:mod:`repro.exp.bench`) and print it as a table against its
    baseline (``--baseline``, default the committed
    ``BENCH_<suite>.json``).  ``hotpath`` times the simulator hot path
    (kernel events/sec, cache array lookups/sec, disabled-trace
    emits/sec, Table-2 end-to-end wall time, exact vs batch engine
    throughput) and tags its results with the exact engine's
    fingerprint (native build or pure Python); ``scaleout``
    sweeps 2/4/8/16 masters under FCFS / static priority / round-robin
    arbitration; ``fabrics`` sweeps the same masters over the atomic
    snoopy / split-transaction / directory fabrics and prints the
    snoopy-vs-directory headline; ``service`` runs the campaign-service
    saturation study (dedup under concurrent clients, load shedding at a
    starved fleet, cache replay); ``paper`` regenerates the paper's
    evaluation (Tables 2/3, Fig 4, Figs 5-8, the headline numbers,
    ablations, extensions, kernels and trace sweeps) at the paper's
    parameters; it is the one path that regenerates the paper, and its
    runner flags ``--jobs N`` (worker processes) and ``--cache-dir
    DIR`` (on-disk result cache, run manifest in
    ``DIR/manifest.json``) change its speed, never its rows.
    ``--quick`` shrinks the workload (``paper`` has one size only).  A
    run writes its result document only to ``--output PATH``; ``repro
    bench <suite> --output BENCH_<suite>.json`` records a baseline.
    ``--check`` exits 1 when a checked field regresses or is missing
    (wall-clock rates beyond ``--tolerance``, default 0.25;
    simulated and counted fields exactly) or the run breaks its suite's
    invariants (hotpath: batch faster than exact; service: admission
    arithmetic; paper: every claim of the paper), and 2 when the
    baseline is missing, unparseable or not like for like (another
    engine, native build or Python implementation).
``serve``
    Boot the crash-safe campaign job service (:mod:`repro.service`):
    a stdlib asyncio HTTP API that accepts sweep / fuzz / shrink jobs
    as JSON, dedups identical submissions, answers repeats from the
    sharded result cache, sheds load beyond a bounded queue, and
    recovers from ``kill -9`` via its JSONL journal.  See
    ``docs/service.md``.
``submit PAYLOAD``
    Submit one job (inline JSON, ``@file.json`` or ``-``) to a running
    service; ``--wait`` long-polls to the terminal state, ``--follow``
    streams the SSE feed.
``verify``
    Exhaustively model-check every protocol pair, wrapped and
    unwrapped, and print the verdict matrix.
``fuzz {run,repro,shrink}``
    Coherence fuzzing (:mod:`repro.fuzz`).  ``run`` executes a seeded
    campaign of random platform/workload cases over crash-proof worker
    subprocesses, classifies every outcome against its oracle, and
    writes replayable reproducers for unexpected ones; ``repro``
    replays a reproducer file byte-identically; ``shrink`` minimises a
    failing case with delta debugging.  See ``docs/robustness.md``.
``lint``
    Run the static-analysis suite (:mod:`repro.lint`) over the package
    source: AST hazard rules plus the protocol-table validators.  See
    ``docs/static-analysis.md``.

Exit codes are uniform across subcommands: 0 success, 1 failure of the
command's check (regression, mismatch, lint finding), 2 usage or
configuration errors (bad arguments, unknown protocol/entry, a
missing, unparseable or not like-for-like baseline).
"""

from __future__ import annotations

import argparse
import sys

from .core.deadlock import SOLUTIONS, run_deadlock_demo
from .core.reduction import reduce_protocols
from .errors import ConfigError, IntegrationError, ReproError
from .exp.bench import SUITE_NAMES, run_cli
from .fuzz.cli import add_fuzz_arguments, run_fuzz
from .lint.cli import add_lint_arguments, run_lint
from .service.cli import (
    add_serve_arguments,
    add_submit_arguments,
    run_serve,
    run_submit,
)
from .verify.model_check import check_matrix
from .workloads import MicrobenchSpec, run_microbench, table2_demo, table3_demo


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous cache-coherence reproduction (DATE 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="run the Table 2/3 sequences")

    sub.add_parser("deadlock", help="run the Fig 4 scenario + remedies")

    p = sub.add_parser("faults", help="run the fault-injection matrix")
    p.add_argument("--list", action="store_true",
                   help="print the matrix entries without running them")
    p.add_argument("--only", default=None, metavar="NAME",
                   help="run a single matrix entry by name")
    p.add_argument("--dump", default=None, metavar="PATH",
                   help="write the JSON report (incl. watchdog dumps) here")
    p.add_argument("--max-events", type=int, default=None,
                   help="override the per-entry event backstop")

    p = sub.add_parser("reduce", help="integrate a protocol mix")
    p.add_argument("protocols", nargs="+",
                   help="protocol names (MEI/MSI/MESI/MOESI/DRAGON) or 'none'")

    sub.add_parser("verify", help="model-check every protocol pair")

    p = sub.add_parser("fuzz", help="coherence fuzzing: run/repro/shrink")
    add_fuzz_arguments(p)

    p = sub.add_parser("lint", help="run the static-analysis suite")
    add_lint_arguments(p)

    p = sub.add_parser(
        "serve", help="run the crash-safe campaign job service"
    )
    add_serve_arguments(p)

    p = sub.add_parser("submit", help="submit a job to a running service")
    add_submit_arguments(p)

    p = sub.add_parser("bench", help="run one microbenchmark configuration")
    p.add_argument("scenario", choices=("wcs", "tcs", "bcs") + SUITE_NAMES)
    p.add_argument("solution", nargs="?", default=None,
                   choices=("disabled", "software", "proposed"))
    p.add_argument("--lines", type=int, default=8)
    p.add_argument("--exec-time", type=int, default=1)
    p.add_argument("--iterations", type=int, default=8)
    p.add_argument("--check", action="store_true",
                   help="attach the coherence checker (suites: fail on "
                        "regression vs the baseline; exit 2 without a "
                        "readable, like-for-like baseline)")
    p.add_argument("--quick", action="store_true",
                   help="suites: reduced workload for smoke runs")
    p.add_argument("--repeats", type=int, default=3,
                   help="hotpath only: best-of-N timing repeats")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="paper only: simulation worker processes "
                        "(default: 1, serial)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="paper only: on-disk result cache, with the run "
                        "manifest in DIR/manifest.json (default: off)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="suites: baseline JSON (default: the committed "
                        "BENCH_<suite>.json)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="allowed drift before --check fails (default: "
                        "0.25 for hotpath wall-clock, exact for the "
                        "simulated and counted metrics)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="suites: write the result document here (the only "
                        "place a run writes)")
    return parser


def _cmd_tables(_args) -> int:
    for demo in (table2_demo, table3_demo):
        for wrapped in (False, True):
            print(demo(wrapped).render())
            print()
    return 0


def _cmd_deadlock(_args) -> int:
    wedged = 0
    for solution in SOLUTIONS:
        outcome = run_deadlock_demo(solution)
        wedged += outcome.deadlocked
        print(outcome.render())
    return 0 if wedged == 1 else 1


def _cmd_faults(args) -> int:
    from .faults.matrix import (
        MATRIX_MAX_EVENTS,
        default_matrix,
        render_results,
        results_to_json,
        run_matrix,
    )

    entries = default_matrix()
    if args.only is not None:
        entries = tuple(e for e in entries if e.name == args.only)
        if not entries:
            known = ", ".join(e.name for e in default_matrix())
            print(f"unknown matrix entry {args.only!r}; known: {known}",
                  file=sys.stderr)
            return 2
    if args.list:
        for entry in entries:
            print(f"{entry.name:<16} expect={entry.expected:<14} "
                  f"{entry.spec.describe()}")
            print(f"{'':<16} {entry.rationale}")
        return 0
    results = run_matrix(entries, max_events=args.max_events or MATRIX_MAX_EVENTS)
    print(render_results(results))
    if args.dump:
        with open(args.dump, "w") as handle:
            handle.write(results_to_json(results))
        print(f"report written to {args.dump}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_reduce(args) -> int:
    protocols = [None if p.lower() == "none" else p for p in args.protocols]
    result = reduce_protocols(protocols)
    print(f"system protocol: {result.system_protocol}")
    for name, policy in zip(args.protocols, result.policies):
        print(f"  {name:>6}: {policy}")
    return 0


def _cmd_bench(args) -> int:
    if args.scenario in SUITE_NAMES:
        return run_cli(args)
    if args.solution is None:
        print(f"bench {args.scenario}: a solution "
              "(disabled/software/proposed) is required", file=sys.stderr)
        return 2
    spec = MicrobenchSpec(
        scenario=args.scenario,
        solution=args.solution,
        lines=args.lines,
        exec_time=args.exec_time,
        iterations=args.iterations,
    )
    result = run_microbench(spec, check=args.check)
    print(f"{spec.scenario}/{spec.solution}: {result.elapsed_ns} ns "
          f"({result.elapsed_us:.1f} us), {result.isr_entries} ISR entries")
    for key in sorted(result.stats):
        if key.startswith("bus."):
            print(f"  {key:<24} {result.stats[key]}")
    return 0


def _cmd_verify(_args) -> int:
    failures = 0
    for wrapped in (True, False):
        label = "wrapped (reduction policies)" if wrapped else "unwrapped (identity)"
        print(f"-- {label} --")
        for (p0, p1), result in check_matrix(wrapped=wrapped).items():
            status = "SAFE  " if result.ok else "UNSAFE"
            print(f"  {p0:>5} + {p1:<5} {status} ({result.reachable_states} states)")
            if wrapped and not result.ok:
                failures += 1
    return 1 if failures else 0


def _cmd_lint(args) -> int:
    return run_lint(args)


_COMMANDS = {
    "tables": _cmd_tables,
    "deadlock": _cmd_deadlock,
    "faults": _cmd_faults,
    "reduce": _cmd_reduce,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
    "fuzz": run_fuzz,
    "lint": _cmd_lint,
    "serve": run_serve,
    "submit": run_submit,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Domain errors become the uniform exit codes the module docstring
    documents instead of tracebacks: bad inputs (unknown protocols,
    malformed fault specs, unreadable files) exit 2, everything else in
    the :class:`ReproError` family exits 1.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, IntegrationError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
