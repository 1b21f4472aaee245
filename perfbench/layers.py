"""Which calls into the program are timed, and the per-layer metrics.

:class:`LayerProbe` installs span wrappers (``spans.py``) around the
public entry points of each layer, named after the module that owns
them, and keeps the counts those layers expose (simulated time, kernel
events, retired instructions, ARTRY retries, per-master grants).  After
a traced run, :meth:`LayerProbe.metrics` turns spans and counts into
the ``per_layer`` metrics of ``BENCHMARK.json``, each divided by the
number of operations the run completed (one replay, one figure or one
service job), so a count repeats exactly from run to run whatever the
run length.
"""

from __future__ import annotations

import statistics
import weakref
from typing import Dict, List, Optional

from spans import Patcher, Recorder, aggregate, wrap_gen, wrap_sync

__all__ = ["LayerProbe", "PER_LAYER", "merge_aggregates"]

#: (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.run.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.elapsed_ns", "ns"),
    ("cache.controller.accesses", "count"),
    ("cache.controller.access.self_s", "s"),
    ("cache.array.calls", "count"),
    ("cache.array.self_s", "s"),
    ("cache.controller.snoop_decision.calls", "count"),
    ("cache.controller.snoop_decision.self_s", "s"),
    ("cache.controller.drains", "count"),
    ("cache.controller.drain_line.self_s", "s"),
    ("cache.protocols.calls", "count"),
    ("cache.protocols.self_s", "s"),
    ("core.wrapper.snoops", "count"),
    ("core.wrapper.snoop.self_s", "s"),
    ("core.snoop_logic.snoops", "count"),
    ("core.snoop_logic.cam_updates", "count"),
    ("core.snoop_logic.self_s", "s"),
    ("bus.txns", "count"),
    ("bus.retries", "count"),
    ("bus.retry_ratio", "ratio"),
    ("bus.transact.self_s", "s"),
    ("bus.arbiter.requests", "count"),
    ("bus.arbiter.self_s", "s"),
    ("bus.arbiter.grant_spread", "ratio"),
    ("mem.controller.accesses", "count"),
    ("mem.controller.self_s", "s"),
    ("cpu.instructions", "count"),
    ("cpu.instructions_per_s", "1/s"),
    ("engines.exact.build_s", "s"),
    ("engines.exact.replay_s", "s"),
    ("engines.batch.ingest_s", "s"),
    ("engines.batch.replay_s", "s"),
    ("exp.runner.jobs", "count"),
    ("exp.runner.overhead_s", "s"),
    ("exp.cache.get.self_s", "s"),
    ("exp.cache.put.self_s", "s"),
    ("exp.cache.hit_ratio", "ratio"),
    ("exp.procpool.submit.self_s", "s"),
    ("exp.procpool.poll.self_s", "s"),
    ("service.scheduler.submit.self_s", "s"),
    ("service.http.submit_ms", "ms"),
    ("service.journal.appends", "count"),
    ("service.journal.append.self_s", "s"),
    ("service.worker.exec_s", "s"),
    ("service.deduped", "count"),
    ("service.cache_hits", "count"),
    ("service.shed", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def _subclasses(cls) -> List[type]:
    """``cls`` and every class derived from it (imported so far)."""
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def merge_aggregates(parts: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum several :func:`spans.aggregate` results (service + workers)."""
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, entry in part.items():
            into = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "spans": 0})
            for key, value in entry.items():
                into[key] += value
    return out


class LayerProbe:
    """Span wrappers on every layer plus the counts the layers keep."""

    def __init__(self, rec: Optional[Recorder] = None):
        self.rec = rec if rec is not None else Recorder()
        self.patcher = Patcher()
        self.counts: Dict[str, float] = {
            "events": 0, "elapsed_ns": 0, "retries": 0, "retired": 0,
            "replay_exact": 0.0, "build_exact": 0.0,
            "replay_batch": 0.0, "ingest_batch": 0.0,
            "cache_gets": 0, "cache_hits": 0,
        }
        self.spreads: List[float] = []
        # last-seen cumulative counters per live model object
        self._buses: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._cores: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._arbiters: "weakref.WeakSet" = weakref.WeakSet()

    # -- installation ------------------------------------------------------
    def _sync(self, owner, attr, name, on_return=None):
        rec = self.rec
        self.patcher.patch(owner, attr, lambda fn: wrap_sync(fn, rec, name, on_return))

    def _gen(self, owner, attr, name, on_start=None):
        rec = self.rec
        self.patcher.patch(owner, attr, lambda fn: wrap_gen(fn, rec, name, on_start))

    def install_model(self) -> None:
        """Wrap the simulator, cache, coherence, bus, memory and engine
        layers.  Call before any Platform or batch model is built."""
        from repro.bus.arbiter import Arbiter
        from repro.bus.asb import AsbBus
        from repro.cache.array import CacheArray
        from repro.cache.controller import CacheController
        from repro.cache.protocols.base import CoherenceProtocol
        from repro.core.snoop_logic import SnoopLogic
        from repro.core.wrapper import Wrapper
        from repro.cpu.core import Core
        from repro.engines.batch import BatchEngine
        from repro.engines.exact import ExactEngine
        import repro.fabric  # noqa: F401  (imports every fabric subclass)
        from repro.mem.controller import MemoryController
        from repro.sim.kernel import Simulator

        self.patcher.patch(Simulator, "run", self._make_sim_run)
        for attr in ("read", "write", "swap"):
            self._gen(CacheController, attr, "cache.controller.access")
        for attr in ("lookup", "victim_for", "install", "remove"):
            self._sync(CacheArray, attr, "cache.array")
        self._sync(CacheController, "snoop_decision", "cache.controller.snoop_decision")
        self._gen(CacheController, "drain_line", "cache.controller.drain_line")
        for cls in _subclasses(CoherenceProtocol):
            for attr in ("snoop", "read_hit", "write_hit", "fill_state"):
                if attr in vars(cls):
                    self._sync(cls, attr, "cache.protocols")
        self._sync(Wrapper, "snoop", "core.wrapper.snoop")
        self._sync(SnoopLogic, "snoop", "core.snoop_logic.snoop")
        for attr in ("_on_install", "_on_remove"):  # the TAG CAM mirror
            self._sync(SnoopLogic, attr, "core.snoop_logic.cam")
        for attr in ("read_word", "write_word"):  # the ISR's mailbox
            self._sync(SnoopLogic, attr, "core.snoop_logic.mailbox")
        for cls in _subclasses(AsbBus):
            if "transact" in vars(cls):
                self._gen(cls, "transact", "bus.transact", on_start=self._watch_bus)
        for cls in _subclasses(Arbiter):
            if "request" in vars(cls):
                self._sync(cls, "request", "bus.arbiter",
                           on_return=lambda args, _r, _s: self._arbiters.add(args[0]))
            if "release" in vars(cls):
                self._sync(cls, "release", "bus.arbiter")
        self._sync(MemoryController, "access", "mem.controller")
        self.patcher.patch(Core, "start", self._make_core_start)
        self._sync(ExactEngine, "run", "engines.exact.run", on_return=self._on_exact)
        self._sync(BatchEngine, "run", "engines.batch.run", on_return=self._on_batch)

    def install_exp(self) -> None:
        """Wrap the sweep runner, its jobs, the result cache and the pool."""
        from repro.exp.cache import ResultCache
        from repro.exp.jobs import SimJob
        from repro.exp.procpool import ResilientPool
        from repro.exp.runner import SweepRunner
        import repro.service.jobs  # noqa: F401  (registers every job kind)

        self._sync(SweepRunner, "run", "exp.runner.run")
        for cls in _subclasses(SimJob):
            if "run" in vars(cls):
                self._sync(cls, "run", "exp.job.run")
        self._sync(ResultCache, "get", "exp.cache.get", on_return=self._on_cache_get)
        self._sync(ResultCache, "put", "exp.cache.put")
        self._sync(ResilientPool, "submit", "exp.procpool.submit")
        self._sync(ResilientPool, "poll", "exp.procpool.poll")

    def install_service(self) -> None:
        """Wrap admission, the journal and the worker body.  Call before
        the service builds its scheduler (the pool captures the body)."""
        import repro.service.scheduler as scheduler
        from repro.service.state import Journal

        self._sync(scheduler.Scheduler, "submit", "service.scheduler.submit")
        self._sync(Journal, "append", "service.journal.append")
        self._sync(scheduler, "execute_submission", "service.worker.exec")

    def uninstall(self) -> None:
        self.patcher.restore()

    # -- hooks -------------------------------------------------------------
    def _make_sim_run(self, original):
        timed = wrap_sync(original, self.rec, "sim.run")

        def run(sim, *args, **kwargs):
            now, fired = sim.now, sim.events_fired
            try:
                return timed(sim, *args, **kwargs)
            finally:
                self._after_sim_run(sim, now, fired)

        return run

    def _make_core_start(self, original):
        cores = self._cores

        def start(core, *args, **kwargs):
            cores.setdefault(core, core.retired)
            return original(core, *args, **kwargs)

        return start

    def _watch_bus(self, args) -> None:
        bus = args[0]
        if bus not in self._buses:
            self._buses[bus] = bus.stats.get("bus.retries")

    def _after_sim_run(self, sim, now_before: int, fired_before: int) -> None:
        counts = self.counts
        counts["events"] += sim.events_fired - fired_before
        counts["elapsed_ns"] += sim.now - now_before
        for bus, seen in list(self._buses.items()):
            if bus.sim is sim:
                retries = bus.stats.get("bus.retries")
                counts["retries"] += retries - seen
                self._buses[bus] = retries
        for core, seen in list(self._cores.items()):
            if core.sim is sim:
                counts["retired"] += core.retired - seen
                self._cores[core] = core.retired
        for arbiter in list(self._arbiters):
            grants = arbiter.grants_by_master
            if arbiter.sim is sim and len(grants) > 1:
                self.spreads.append(max(grants.values()) / min(grants.values()))

    def _on_exact(self, _args, result, seconds: float) -> None:
        self.counts["replay_exact"] += result.wall_s
        self.counts["build_exact"] += seconds - result.wall_s

    def _on_batch(self, _args, result, seconds: float) -> None:
        self.counts["replay_batch"] += result.wall_s
        self.counts["ingest_batch"] += seconds - result.wall_s

    def _on_cache_get(self, _args, result, _seconds: float) -> None:
        self.counts["cache_gets"] += 1
        if result is not None:
            self.counts["cache_hits"] += 1

    # -- metrics -----------------------------------------------------------
    def metrics(
        self,
        ops: int,
        overhead_ratio: float,
        agg: Optional[Dict[str, Dict[str, float]]] = None,
        calls: Optional[Dict[str, int]] = None,
        service: Optional[Dict[str, float]] = None,
    ) -> Dict[str, float]:
        """Every ``PER_LAYER`` metric, per completed operation.

        ``agg`` and ``calls`` default to this process's spans; the
        service workload passes those of the service and its workers,
        and ``service`` with the client-side and ``/stats`` figures.
        """
        agg = agg if agg is not None else aggregate(self.rec)
        calls = calls if calls is not None else self.rec.calls
        c = self.counts
        ops = max(ops, 1)

        def self_s(*names: str) -> float:
            return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

        def per_op(value: float) -> float:
            return value / ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        txns = calls.get("bus.transact", 0)
        sim_self = self_s("sim.run")
        svc = service or {}
        out = {
            "sim.events": per_op(c["events"]),
            "sim.run.self_s": per_op(sim_self),
            "sim.ns_per_event": ratio(sim_self * 1e9, c["events"]),
            "sim.elapsed_ns": per_op(c["elapsed_ns"]),
            "cache.controller.accesses": per_op(calls.get("cache.controller.access", 0)),
            "cache.controller.access.self_s": per_op(self_s("cache.controller.access")),
            "cache.array.calls": per_op(calls.get("cache.array", 0)),
            "cache.array.self_s": per_op(self_s("cache.array")),
            "cache.controller.snoop_decision.calls": per_op(
                calls.get("cache.controller.snoop_decision", 0)),
            "cache.controller.snoop_decision.self_s": per_op(
                self_s("cache.controller.snoop_decision")),
            "cache.controller.drains": per_op(calls.get("cache.controller.drain_line", 0)),
            "cache.controller.drain_line.self_s": per_op(
                self_s("cache.controller.drain_line")),
            "cache.protocols.calls": per_op(calls.get("cache.protocols", 0)),
            "cache.protocols.self_s": per_op(self_s("cache.protocols")),
            "core.wrapper.snoops": per_op(calls.get("core.wrapper.snoop", 0)),
            "core.wrapper.snoop.self_s": per_op(self_s("core.wrapper.snoop")),
            "core.snoop_logic.snoops": per_op(calls.get("core.snoop_logic.snoop", 0)),
            "core.snoop_logic.cam_updates": per_op(calls.get("core.snoop_logic.cam", 0)),
            "core.snoop_logic.self_s": per_op(self_s(
                "core.snoop_logic.snoop", "core.snoop_logic.cam",
                "core.snoop_logic.mailbox")),
            "bus.txns": per_op(txns),
            "bus.retries": per_op(c["retries"]),
            "bus.retry_ratio": ratio(c["retries"], txns + c["retries"]),
            "bus.transact.self_s": per_op(self_s("bus.transact")),
            "bus.arbiter.requests": per_op(calls.get("bus.arbiter", 0)),
            "bus.arbiter.self_s": per_op(self_s("bus.arbiter")),
            "bus.arbiter.grant_spread": (
                statistics.fmean(self.spreads) if self.spreads else 0.0),
            "mem.controller.accesses": per_op(calls.get("mem.controller", 0)),
            "mem.controller.self_s": per_op(self_s("mem.controller")),
            "cpu.instructions": per_op(c["retired"]),
            "cpu.instructions_per_s": ratio(c["retired"], sim_self),
            "engines.exact.build_s": per_op(c["build_exact"]),
            "engines.exact.replay_s": per_op(c["replay_exact"]),
            "engines.batch.ingest_s": per_op(c["ingest_batch"]),
            "engines.batch.replay_s": per_op(c["replay_batch"]),
            "exp.runner.jobs": per_op(calls.get("exp.job.run", 0)),
            "exp.runner.overhead_s": per_op(self_s("exp.runner.run")),
            "exp.cache.get.self_s": per_op(self_s("exp.cache.get")),
            "exp.cache.put.self_s": per_op(self_s("exp.cache.put")),
            "exp.cache.hit_ratio": ratio(c["cache_hits"], c["cache_gets"]),
            "exp.procpool.submit.self_s": per_op(self_s("exp.procpool.submit")),
            "exp.procpool.poll.self_s": per_op(self_s("exp.procpool.poll")),
            "service.scheduler.submit.self_s": per_op(self_s("service.scheduler.submit")),
            "service.http.submit_ms": svc.get("http_submit_ms", 0.0),
            "service.journal.appends": per_op(calls.get("service.journal.append", 0)),
            "service.journal.append.self_s": per_op(self_s("service.journal.append")),
            "service.worker.exec_s": per_op(
                agg.get("service.worker.exec", {}).get("total_s", 0.0)),
            "service.deduped": per_op(svc.get("deduped", 0)),
            "service.cache_hits": per_op(svc.get("cache_hits", 0)),
            "service.shed": per_op(svc.get("shed", 0)),
            "trace.overhead_ratio": overhead_ratio,
        }
        return out
