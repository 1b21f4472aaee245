"""One fuzz case: a sampled configuration, its oracle, and its run.

A :class:`FuzzCase` is a frozen, JSON-round-trippable description of
one experiment — either a ``"trace"`` scenario (N processors with
sampled protocols/geometries replaying a sampled workload) or a
``"deadlock"`` scenario (the Fig 4 interleaving under one of the four
lock strategies).  :func:`run_case` executes it and classifies the
outcome; :func:`allowed_outcomes` is the oracle saying which outcomes
are *expected* for that configuration, so the campaign driver can tell
a reproduction of a known hazard (unwrapped Table 2 pair reading stale
data, ``solution="none"`` wedging) from a genuine simulator bug.

Everything here is deterministic: the same case dict replays the same
simulated instants and the same classification, which is what makes
the shrinker's reproducers trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from ..core.deadlock import SOLUTIONS, run_deadlock_demo
from ..core.platform import FABRIC_NAMES, Platform, PlatformConfig
from ..core.reduction import WrapperPolicy
from ..cpu.presets import preset_generic
from ..errors import (
    ConfigError,
    DeadlockError,
    LivelockError,
    ReproError,
    SimulationError,
)
from ..faults import FaultSpec, WatchdogConfig
from ..verify.checker import CoherenceChecker
from ..verify.model_check import check_pair
from ..workloads.tracegen import (
    TraceAccess,
    drive,
    false_sharing_traces,
    hotspot_trace,
    lock_contention_traces,
    producer_consumer_trace,
    racy_traces,
)

__all__ = [
    "FUZZ_PROTOCOLS",
    "MODEL_PROTOCOLS",
    "OUTCOMES",
    "FuzzCase",
    "CaseResult",
    "allowed_outcomes",
    "build_workload",
    "run_case",
]

#: protocols the generator may sample (Dragon only pairs with itself).
#: SI is deliberately absent: it exists only as the i486 write-through
#: sub-protocol (``protocol_wt``) and has no integration-table entry,
#: so a coherent platform cannot be built around it.
FUZZ_PROTOCOLS = ("MEI", "MSI", "MESI", "MOESI", "DRAGON")
#: the subset the exhaustive model checker is sound for
MODEL_PROTOCOLS = ("MEI", "MSI", "MESI", "MOESI")
#: every classification :func:`run_case` (or the campaign driver) emits
OUTCOMES = (
    "clean", "violation", "deadlock", "livelock", "hang", "error",
    "crash", "timeout",
)

#: fast thresholds so a wedged deadlock-scenario case aborts quickly
FUZZ_WATCHDOG = WatchdogConfig(
    check_interval_ns=5_000, stall_threshold_ns=60_000, dump_records=16
)
#: event backstop per case: far above any legitimate fuzz workload
DEFAULT_MAX_EVENTS = 300_000


@dataclass(frozen=True)
class FuzzCase:
    """One sampled configuration, JSON-round-trippable."""

    seed: int
    scenario: str = "trace"          # "trace" | "deadlock"
    # -- trace scenario (tuples are per-master; any length >= 2) ----------
    protocols: Tuple[str, ...] = ("MESI", "MESI")
    wrapped: bool = True
    cache_sizes: Tuple[int, ...] = (1024, 1024)
    cache_ways: Tuple[int, ...] = (2, 2)
    workload: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "racy", "n": 20, "seed": 1}
    )
    fault: Optional[Dict[str, Any]] = None
    #: coherence fabric for trace cases ("atomic" | "split" | "directory")
    fabric: str = "atomic"
    # -- deadlock scenario ------------------------------------------------
    solution: str = "none"
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self):
        if self.scenario not in ("trace", "deadlock"):
            raise ConfigError(f"unknown fuzz scenario {self.scenario!r}")
        if self.scenario == "deadlock" and self.solution not in SOLUTIONS:
            raise ConfigError(f"unknown lock solution {self.solution!r}")
        if self.scenario == "trace":
            if self.fabric not in FABRIC_NAMES:
                raise ConfigError(f"unknown fuzz fabric {self.fabric!r}")
            for name in self.protocols:
                if name not in FUZZ_PROTOCOLS:
                    raise ConfigError(f"unknown fuzz protocol {name!r}")
            if len(self.protocols) < 2:
                raise ConfigError("a trace case needs at least two masters")
            if not (
                len(self.protocols)
                == len(self.cache_sizes)
                == len(self.cache_ways)
            ):
                raise ConfigError(
                    "per-master tuples disagree on master count: "
                    f"{len(self.protocols)} protocols, "
                    f"{len(self.cache_sizes)} cache sizes, "
                    f"{len(self.cache_ways)} cache ways"
                )

    def with_(self, **changes) -> "FuzzCase":
        """A modified copy."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (lists instead of tuples).

        ``fabric`` is emitted only when non-default, so every
        historical case dict (and its JSON reproducer) stays
        byte-identical — the same convention the workload ``procs``
        key follows.
        """
        data = {
            "seed": self.seed,
            "scenario": self.scenario,
            "protocols": list(self.protocols),
            "wrapped": self.wrapped,
            "cache_sizes": list(self.cache_sizes),
            "cache_ways": list(self.cache_ways),
            "workload": self.workload,
            "fault": self.fault,
            "solution": self.solution,
            "max_events": self.max_events,
        }
        if self.fabric != "atomic":
            data["fabric"] = self.fabric
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=data["seed"],
            scenario=data.get("scenario", "trace"),
            protocols=tuple(data.get("protocols", ("MESI", "MESI"))),
            wrapped=data.get("wrapped", True),
            cache_sizes=tuple(data.get("cache_sizes", (1024, 1024))),
            cache_ways=tuple(data.get("cache_ways", (2, 2))),
            workload=data.get("workload", {"kind": "racy", "n": 20, "seed": 1}),
            fault=data.get("fault"),
            fabric=data.get("fabric", "atomic"),
            solution=data.get("solution", "none"),
            max_events=data.get("max_events", DEFAULT_MAX_EVENTS),
        )

    def describe(self) -> str:
        """One-line human rendering for logs and reports."""
        if self.scenario == "deadlock":
            return f"deadlock[{self.solution}] seed={self.seed}"
        mode = "wrapped" if self.wrapped else "UNWRAPPED"
        fault = f" fault={self.fault['site']}" if self.fault else ""
        fabric = f" fabric={self.fabric}" if self.fabric != "atomic" else ""
        return (
            f"{'+'.join(self.protocols)} {mode} "
            f"{self.workload.get('kind', '?')} seed={self.seed}{fault}{fabric}"
        )


@dataclass
class CaseResult:
    """What happened when the case ran, against its oracle."""

    outcome: str
    detail: str
    allowed: Tuple[str, ...]
    elapsed_ns: Optional[int] = None
    violations: int = 0

    @property
    def expected(self) -> bool:
        """True when the outcome is one the oracle allows."""
        return self.outcome in self.allowed

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "outcome": self.outcome,
            "detail": self.detail,
            "allowed": list(self.allowed),
            "expected": self.expected,
            "elapsed_ns": self.elapsed_ns,
            "violations": self.violations,
        }


# -- the oracle -------------------------------------------------------------
def _parallel_kind(workload: Dict[str, Any]) -> bool:
    """Does this workload run one concurrent driver per processor?"""
    return workload.get("kind") not in ("producer-consumer", "explicit-serial")


@lru_cache(maxsize=None)
def _pair_unwrapped_unsafe(p0: str, p1: str) -> bool:
    if p0 in MODEL_PROTOCOLS and p1 in MODEL_PROTOCOLS:
        return not check_pair(p0, p1, wrapped=False).ok
    if p0 == p1:
        return False
    return True


def _unwrapped_unsafe(protocols: Tuple[str, ...]) -> bool:
    """May this mix legitimately violate coherence without wrappers?

    For invalidation pairs the exhaustive model checker answers
    exactly; Dragon/SI mixes are outside its soundness scope, so any
    *heterogeneous* mix involving them is conservatively treated as
    possibly-unsafe, while a homogeneous mix snoops natively and must
    stay coherent.  An N-way mix is unsafe as soon as any pair drawn
    from it is: the incompatible pair's interactions are a subset of
    the system's.
    """
    return any(
        _pair_unwrapped_unsafe(p0, p1)
        for i, p0 in enumerate(protocols)
        for p1 in protocols[i + 1:]
    )


def allowed_outcomes(case: FuzzCase) -> Tuple[str, ...]:
    """The oracle: every outcome this configuration may legitimately show.

    * deadlock scenario — ``solution="none"`` must wedge, everything
      else must complete (a clean "none" run would mean the Fig 4
      reproduction regressed);
    * trace scenario — clean always; stale reads / SWMR breakage when
      the wrappers are off and the pair is (possibly) incompatible;
      any detector firing when a fault is armed.  Concurrent
      multi-master workloads may additionally deadlock even when
      wrapped: the controllers deliberately model the paper's single
      tag/data port, so two masters that simultaneously miss on lines
      dirty in each other's caches each hold their own port (blocking
      the drain the other is waiting for) — the Fig 4 hazard surfacing
      on unsynchronised data traffic rather than on a lock variable.
      Coherence is never allowed to break on a wrapped pair, though:
      a wrapped ``violation`` is always unexpected.
    """
    if case.scenario == "deadlock":
        return ("deadlock",) if case.solution == "none" else ("clean",)
    allowed = {"clean"}
    if case.fault is not None:
        allowed.update(("violation", "deadlock", "livelock", "hang"))
    if not case.wrapped and _unwrapped_unsafe(case.protocols):
        allowed.add("violation")
    if _parallel_kind(case.workload):
        allowed.add("deadlock")
    return tuple(sorted(allowed))


# -- workload construction ---------------------------------------------------
def build_workload(workload: Dict[str, Any]):
    """Materialise a workload dict into replayable traces.

    Returns ``("parallel", {proc: [TraceAccess, ...]})`` for the
    contention kinds (one concurrent driver per processor) or
    ``("serial", [TraceAccess, ...])`` for the serialised kinds (one
    driver issuing the interleaving in order — what the shrinker's
    byte-identical reproducers use).

    The generated kinds honour ``workload["procs"]`` (default 2) so an
    N-master case gets one trace per master.
    """
    kind = workload.get("kind")
    procs = workload.get("procs", 2)
    if kind == "racy":
        return "parallel", racy_traces(
            workload.get("n", 20),
            procs=procs,
            footprint_words=workload.get("footprint_words", 8),
            write_ratio=workload.get("write_ratio", 0.5),
            seed=workload.get("seed", 1),
        )
    if kind == "false-sharing":
        return "parallel", false_sharing_traces(
            workload.get("n", 20),
            procs=procs,
            lines=workload.get("lines", 2),
            seed=workload.get("seed", 1),
        )
    if kind == "lock-contention":
        return "parallel", lock_contention_traces(
            workload.get("n_acquires", 4),
            procs=procs,
            seed=workload.get("seed", 1),
        )
    if kind == "hotspot":
        return "parallel", {
            proc: hotspot_trace(
                workload.get("n", 30),
                footprint_words=workload.get("footprint_words", 32),
                proc=proc,
                seed=workload.get("seed", 1) + proc,
            )
            for proc in range(procs)
        }
    if kind == "producer-consumer":
        return "serial", producer_consumer_trace(workload.get("n_items", 10))
    if kind == "explicit":
        return "parallel", {
            int(proc): [
                TraceAccess(int(proc), op, addr, value)
                for op, addr, value in accesses
            ]
            for proc, accesses in workload["traces"].items()
        }
    if kind == "explicit-serial":
        return "serial", [
            TraceAccess(proc, op, addr, value)
            for proc, op, addr, value in workload["accesses"]
        ]
    raise ConfigError(f"unknown workload kind {kind!r}")


def explicit_workload(workload: Dict[str, Any]) -> Dict[str, Any]:
    """The same workload, frozen into its explicit form.

    Generated kinds are expanded into literal access lists so the
    shrinker can delete individual accesses while the replay stays
    byte-identical.  Already-explicit workloads pass through.
    """
    if workload.get("kind") in ("explicit", "explicit-serial"):
        return workload
    mode, traces = build_workload(workload)
    if mode == "serial":
        return {
            "kind": "explicit-serial",
            "accesses": [[a.proc, a.op, a.addr, a.value] for a in traces],
        }
    return {
        "kind": "explicit",
        "traces": {
            str(proc): [[a.op, a.addr, a.value] for a in traces[proc]]
            for proc in sorted(traces)
        },
    }


# -- execution ---------------------------------------------------------------
def _trace_platform(case: FuzzCase) -> Platform:
    cores = tuple(
        preset_generic(f"p{i}", case.protocols[i]).with_(
            cache_size=case.cache_sizes[i], cache_ways=case.cache_ways[i]
        )
        for i in range(len(case.protocols))
    )
    faults: Tuple[FaultSpec, ...] = ()
    if case.fault is not None:
        faults = (FaultSpec(**case.fault),)
    platform = Platform(
        PlatformConfig(
            cores=cores,
            hardware_coherence=True,
            faults=faults,
            fabric=case.fabric,
        )
    )
    if not case.wrapped:
        for wrapper in platform.wrappers:
            if wrapper is not None:
                wrapper.policy = WrapperPolicy()  # identity: native snooping
    return platform


def _run_trace_case(case: FuzzCase) -> CaseResult:
    allowed = allowed_outcomes(case)
    platform = _trace_platform(case)
    checker = CoherenceChecker(platform, max_violations=64)
    mode, traces = build_workload(case.workload)

    drivers: List = []
    if mode == "serial":
        drivers.append(
            platform.sim.process(drive(platform, traces), name="fuzz-serial")
        )
    else:
        for proc in sorted(traces):
            drivers.append(
                platform.sim.process(
                    drive(platform, traces[proc]), name=f"fuzz-p{proc}"
                )
            )
    done = platform.sim.all_of(drivers)
    try:
        platform.sim.run(stop_event=done, max_events=case.max_events)
        if not done.ok:
            # A driver failed; the barrier caught its error.
            raise done.value
    except DeadlockError as exc:
        return CaseResult("deadlock", str(exc), allowed)
    except LivelockError as exc:
        return CaseResult("livelock", str(exc), allowed)
    except SimulationError as exc:
        return CaseResult("hang", str(exc), allowed)
    except ReproError as exc:
        return CaseResult("error", f"{type(exc).__name__}: {exc}", allowed)
    if not done.triggered:
        return CaseResult("hang", "drivers never completed", allowed)
    checker.check_all_lines()
    if not checker.clean:
        return CaseResult(
            "violation",
            f"{len(checker.violations)} violation(s); first: "
            + str(checker.violations[0]),
            allowed,
            elapsed_ns=platform.sim.now,
            violations=len(checker.violations),
        )
    return CaseResult(
        "clean", checker.summary(), allowed, elapsed_ns=platform.sim.now
    )


def _run_deadlock_case(case: FuzzCase) -> CaseResult:
    allowed = allowed_outcomes(case)
    outcome = run_deadlock_demo(
        case.solution, max_events=case.max_events, watchdog=FUZZ_WATCHDOG
    )
    if outcome.deadlocked:
        return CaseResult("deadlock", outcome.detail, allowed)
    return CaseResult(
        "clean", outcome.detail, allowed, elapsed_ns=outcome.elapsed_ns
    )


def run_case(case: FuzzCase) -> CaseResult:
    """Execute ``case`` and classify the outcome against its oracle.

    Configuration mistakes (an unbuildable platform, a bad workload
    dict) classify as ``error`` — never in any allowed set, so they
    surface as unexpected rather than crashing the campaign.
    """
    try:
        if case.scenario == "deadlock":
            return _run_deadlock_case(case)
        return _run_trace_case(case)
    except ReproError as exc:
        return CaseResult(
            "error", f"{type(exc).__name__}: {exc}", allowed_outcomes(case)
        )
