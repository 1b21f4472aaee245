"""One workload process: set up, run operations until time is up, check.

Started by ``run.py`` (never by hand) for the trace and figure
workloads::

    python3 perfbench/child.py --workload NAME --seed N --seconds S
                               --trace 0|1 [--probe]

It prints one JSON line: the monotonic timestamps ``run.py`` turns into
``setup_s`` (``pre_gen``, ``post_gen``, ``first_op``), and unless
``--probe`` (set-up only) the per-operation wall times, the output
checks, peak RSS and, with ``--trace 1``, the per-layer metrics.

With ``--trace 0`` a ``speed.SpeedSampler`` times the reference loop
every 10 ms of processor time from process start; the line then also carries the time the
sampler took out of set-up and out of each operation, and each
operation's wall time corrected to the reference speed.

An operation is one whole ``engine.run()`` call over the workload's
trace, or one regeneration of Figure 6 through a serial, uncached
``SweepRunner``.  Timing is taken around the whole call from outside.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from speed import SpeedSampler
from workloads import (
    FIGURE_WORKLOAD,
    TRACE_WORKLOADS,
    check_trace_result,
    expected_figure,
    exact_view,
    trace_inputs,
)

OUT_DIR = ".perfbench_out"


def _trace_ops(name: str, seed: int, probe: bool, sampler):
    """(operation, check, units per op, timestamps) for a trace workload;
    the timestamps are those of input generation and the time the speed
    sampler took during it."""
    from repro.engines import get_engine

    family, engine_name = TRACE_WORKLOADS[name]
    spent = sampler.spent_s if sampler else 0.0
    pre_gen = time.monotonic()
    config, accesses = (None, None) if probe else trace_inputs(family, seed)
    post_gen = time.monotonic()
    spent = (sampler.spent_s if sampler else 0.0) - spent
    engine = get_engine(engine_name)
    reference: dict = {}

    def op():
        return engine.run(config, accesses)

    def check(result):
        # The first replay is checked in full; later ones must equal it
        # (and inherit its verdict, so a wrong result fails every time).
        if not reference:
            oracle = get_engine("exact").run(config, accesses) if engine_name == "batch" else None
            failures, notes = check_trace_result(
                family, engine_name, seed, result, accesses, oracle)
            reference.update(view=exact_view(result), failures=failures, notes=notes)
            return failures
        if exact_view(result) != reference["view"]:
            return ["replay differs from the first replay of the same trace"]
        return reference["failures"]

    return op, check, (len(accesses) if accesses else 0), (pre_gen, post_gen, spent), reference


def _figure_ops():
    from repro.analysis.figures import figure6_bcs
    from repro.exp import SweepRunner

    pre_gen = post_gen = time.monotonic()
    expected = expected_figure()
    runners = []

    def op():
        runner = SweepRunner(jobs=1)
        runners.append(runner)
        return figure6_bcs(runner=runner)

    def check(figure):
        if figure.render() + "\n" != expected:
            return ["Figure 6 rows differ from the committed rendering"]
        return []

    return op, check, 54, (pre_gen, post_gen, 0.0), runners


def _run_ops(op, check, deadline: float, min_ops: int, sampler=None):
    """Run ``op`` until ``deadline`` (at least ``min_ops`` times);
    returns (wall seconds per op, failure messages, failed op count,
    ``(start, end, wall less sampler time)`` per op)."""
    walls, timed, failures, failed = [], [], [], 0
    spent = sampler.spent_s if sampler else 0.0
    while len(walls) < min_ops or time.monotonic() < deadline:
        start = time.monotonic()
        result = op()
        end = time.monotonic()
        walls.append(end - start)
        if sampler:
            timed.append((start, end, end - start - (sampler.spent_s - spent)))
        problems = check(result)
        failures += problems
        failed += bool(problems)
        spent = sampler.spent_s if sampler else 0.0
    return walls, failures, failed, timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    # Per-layer runs are not corrected for speed, and the sampler's loop
    # would land inside whatever span is open.
    sampler = None if args.trace else SpeedSampler()
    if sampler:
        sampler.start()

    if args.workload in TRACE_WORKLOADS:
        op, check, units, (pre_gen, post_gen, gen_spent), extra = _trace_ops(
            args.workload, args.seed, args.probe, sampler)
    elif args.workload == FIGURE_WORKLOAD:
        op, check, units, (pre_gen, post_gen, gen_spent), extra = _figure_ops()
    else:
        print(f"child.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    first_op = time.monotonic()
    out = {"pre_gen": pre_gen, "post_gen": post_gen, "first_op": first_op}
    if sampler:
        # Set-up less the sampler's own time, and how slow the processor
        # ran meanwhile (input generation included; it is short).
        out["setup_spent_s"] = sampler.spent_s - gen_spent
        out["setup_slowness"] = sampler.slowness(end=first_op)
    if args.probe:
        if sampler:
            sampler.stop()
        print(json.dumps(out))
        return 0

    if args.trace:
        # A third of the time untraced, for the overhead ratio; then
        # the traced operations with wrappers installed around them.
        from layers import LayerProbe

        plain, failures, failed, _ = _run_ops(op, check, first_op + args.seconds / 3, 2)
        probe = LayerProbe()
        probe.install_model()
        probe.install_exp()
        try:
            walls, fails, traced_failed, _ = _run_ops(op, check, first_op + args.seconds, 1)
        finally:
            probe.uninstall()
        failures += fails
        failed += traced_failed
        out["attempted"] = len(plain) + len(walls)
        os.makedirs(OUT_DIR, exist_ok=True)
        probe.rec.dump(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans"))
        out["per_layer"] = probe.metrics(
            len(walls), statistics.median(walls) / statistics.median(plain))
        out["span_count"] = probe.rec.span_count()
    else:
        walls, failures, failed, timed = _run_ops(
            op, check, first_op + args.seconds, 1, sampler)
        sampler.stop()
        out["attempted"] = len(walls)
        out["corrected"] = sampler.corrected(timed)
        out["slowness"] = sampler.slowness()
    if args.workload == FIGURE_WORKLOAD:
        out["job_walls"] = [r.wall_s for runner in extra for r in runner.records]
    else:
        out["notes"] = extra.get("notes", [])
    out.update(
        walls=walls,
        units_per_op=units,
        failures=failures[:20],
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
