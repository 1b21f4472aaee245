"""The repository benchmark: one command, six workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``setup_s`` (median of several launches), ``throughput_per_s``,
``latency_p50_ms`` and ``peak_rss_mb``, with every time divided by the
host's speed as ``speed.py`` samples it; the raw figures and the 95th
latency percentile are printed with the sample count but not bounded
(see README.md).  ``--trace
1`` is a separate run that times the calls into each layer with the
span wrappers of ``spans.py``/``layers.py`` and reports the per-layer
metrics.  Every operation's outputs are checked; a wrong output, a
non-``done`` service job or a refused request counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  What each workload's
operation is, and why the workload exists, is in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: set-up launches per run besides the measuring one (median of all)
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


def latency_line(label: str, latencies) -> str:
    """The median and 95th percentile with the sample count, for the
    printed report."""
    p95 = statistics.quantiles(latencies, n=100)[94] if len(latencies) > 1 else latencies[0]
    beyond = sum(1 for x in latencies if x > p95)
    return (f"{label} = {statistics.median(latencies):.3f} / {p95:.3f} ms "
            f"({len(latencies)} samples, {beyond} beyond p95)")


def speed_line(slowness: float) -> str:
    return (f"host speed: the reference loop ran {slowness:.3f}x its nominal "
            f"time (the times above are divided by that)")


def _child(workload: str, seed: int, seconds: float, trace: int, probe: bool):
    """Launch ``child.py``; returns (launch time, its JSON output)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process for {workload} exited {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_s(launched: float, out: dict) -> float:
    """Launch to first timed operation, less benchmark-side input
    generation and the speed sampler's time, at the reference speed."""
    raw = (out["pre_gen"] - launched) + (out["first_op"] - out["post_gen"])
    return (raw - out["setup_spent_s"]) / out["setup_slowness"]


def run_process_workload(workload: str, seed: int, seconds: float, trace: int):
    from workloads import FIGURE_WORKLOAD, TRACE_WORKLOADS

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_setup_s(*_child(workload, seed, seconds, 0, True)))
    launched, out = _child(workload, seed, seconds, trace, False)
    walls = out["walls"]
    report = {"attempted": out["attempted"], "failed": out["failed"],
              "failures": out["failures"], "notes": out.get("notes", [])}
    if trace:
        report["metrics"] = out["per_layer"]
        report["lines"] = [f"traced operations: {len(walls)}, "
                           f"spans recorded: {out['span_count']}"]
        return report
    setups.append(_setup_s(launched, out))
    op_s = statistics.median(out["corrected"])
    raw_op_s = statistics.median(walls)
    speed = speed_line(out["slowness"])
    if workload == FIGURE_WORKLOAD:
        lines = [f"figure_s = {op_s:.4f} s at the reference speed, {raw_op_s:.4f} s "
                 f"raw (median of {len(walls)} figures, 54 jobs each)", speed,
                 latency_line("raw job latency_p50_ms / p95",
                              [w * 1e3 for w in out["job_walls"]])]
    else:
        engine = TRACE_WORKLOADS[workload][1]
        units = out["units_per_op"]
        lines = [f"{engine}_accesses_per_s = {units / op_s:.1f} accesses/s at the "
                 f"reference speed, {units / raw_op_s:.1f} raw (whole engine.run() "
                 f"call, median of {len(walls)} replays of {units} accesses)", speed,
                 latency_line("raw latency_p50_ms / p95", [w * 1e3 for w in walls])]
    report["metrics"] = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": out["units_per_op"] / op_s,
        "latency_p50_ms": op_s * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    report["lines"] = lines
    return report


def run_service_workload(seed: int, seconds: float, trace: int):
    import service
    from layers import LayerProbe, merge_aggregates
    from spans import aggregate, load

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="service-campaign-", dir=OUT_DIR)
    # The client, the service and its workers (which inherit this) share
    # one vCPU.  Spread over two, every hand-off between them woke an
    # idle vCPU, and how long the host took to do so moved jobs/s by a
    # quarter between runs.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        if not trace:
            # Everything runs on one vCPU, which a sampler thread here
            # times.  Only the processor time the client, the service and
            # the workers used is divided by the slowness; the rest of the
            # wall time is waiting (hand-offs, the pool's poll interval)
            # and is left as measured.  Set-up is processor-bound.
            sampler = SpeedSampler()
            sampler.start_thread()
            try:
                windows = [service.setup_window(ROOT, work) for _ in range(SETUP_PROBES)]
                svc = service.Service(ROOT, work)
                try:
                    windows.append((svc.launched, svc.wait_ready()))
                    spent = sampler.spent_s
                    campaign = service.run_campaign(svc, seed, seconds)
                    spent = sampler.spent_s - spent
                finally:
                    svc.stop()
            finally:
                sampler.stop()
            summary = service.summarize(campaign)
            setups = [(ready - launched) / sampler.slowness(launched, ready)
                      for launched, ready in windows]
            slowness = sampler.slowness(*summary["window"])
            wall, cpu = summary["wall_s"], summary["cpu_s"] - spent
            scale = (wall - cpu + cpu / slowness) / wall
            latencies = summary["latencies_ms"]
            p50 = statistics.median(latencies)
            return {
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "failures": summary["failures"],
                "notes": summary["findings"],
                "metrics": {
                    "setup_s": statistics.median(setups),
                    "throughput_per_s": summary["jobs_per_s"] / scale,
                    "latency_p50_ms": p50 * scale,
                    "peak_rss_mb": summary["peak_rss_mb"],
                },
                "lines": [
                    f"jobs_per_s = {summary['jobs_per_s'] / scale:.2f} jobs/s at the "
                    f"reference speed, {summary['jobs_per_s']:.2f} raw",
                    f"job_latency_p50_ms = {p50 * scale:.3f} ms at the reference speed "
                    "(submit -> terminal)",
                    speed_line(slowness) + f", applied to the {cpu / wall:.0%} of the "
                    "campaign's wall time that was processor time",
                    latency_line("raw job_latency_p50_ms / p95", latencies),
                    f"fresh jobs: {summary['fresh']}, resubmissions: "
                    f"{len(latencies) - summary['fresh']}",
                ],
            }
        # Traced: a third of the time against an uninstrumented service
        # for the overhead ratio, then a fresh instrumented one.
        plain_svc = service.Service(ROOT, work)
        try:
            plain_svc.wait_ready()
            plain = service.summarize(service.run_campaign(plain_svc, seed, seconds / 3))
        finally:
            plain_svc.stop()
        spans_dir = os.path.join(OUT_DIR, f"service-campaign-seed{seed}-spans")
        shutil.rmtree(spans_dir, ignore_errors=True)
        svc = service.Service(ROOT, work, traced_out=spans_dir)
        try:
            svc.wait_ready()
            traced = service.summarize(service.run_campaign(svc, seed, seconds * 2 / 3))
        finally:
            svc.stop()
        recs = [load(os.path.join(spans_dir, name))
                for name in sorted(os.listdir(spans_dir)) if name.endswith(".spans")]
        calls: dict = {}
        for rec in recs:
            for name, n in rec.calls.items():
                calls[name] = calls.get(name, 0) + n
        probe = LayerProbe()
        with open(os.path.join(spans_dir, "service-counts.json"), encoding="utf-8") as handle:
            probe.counts.update(json.load(handle))
        counters = traced["counters"]
        metrics = probe.metrics(
            traced["attempted"],
            statistics.median(traced["latencies_ms"]) / statistics.median(plain["latencies_ms"]),
            agg=merge_aggregates([aggregate(rec) for rec in recs]),
            calls=calls,
            service={
                "http_submit_ms": traced["submit_ms"],
                "deduped": counters["deduped"],
                "cache_hits": counters["cache_hits"],
                "shed": counters["shed"],
            },
        )
        return {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "failures": plain["failures"] + traced["failures"],
            "notes": plain["findings"] + traced["findings"],
            "metrics": metrics,
            "lines": [f"traced jobs: {traced['attempted']}, span files: {len(recs)} "
                      f"(service + {len(recs) - 1} workers)"],
        }
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(work, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import SERVICE_WORKLOAD

    if workload == SERVICE_WORKLOAD:
        return run_service_workload(seed, seconds, trace)
    return run_process_workload(workload, seed, seconds, trace)


def result_line(report: dict, trace: int) -> dict:
    from layers import PER_LAYER

    units = dict(PER_LAYER) if trace else E2E_UNITS
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_report(workload: str, report: dict, trace: int) -> None:
    from layers import PER_LAYER

    print(f"== {workload}")
    for line in report["lines"]:
        print(f"  {line}")
    for note in report.get("notes", []):
        print(f"  note: {note}")
    units = dict(PER_LAYER) if trace else E2E_UNITS
    for name, unit in units.items():
        print(f"  {name:<42} {report['metrics'][name]:>16.6g} {unit}")
    ratio = report["failed"] / report["attempted"]
    print(f"  {'failed_ratio':<42} {ratio:>16.6g} "
          f"({report['failed']} of {report['attempted']} operations)")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace)
        print_report(name, report, args.trace)
        results[name] = result_line(report, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
