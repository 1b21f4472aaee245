"""Synthetic memory-trace workloads.

Beyond the paper's lock-structured microbenchmarks, library users often
want to drive a platform with raw access traces (e.g. to study hit
rates, sharing patterns or bus utilisation).  This module provides:

* :class:`TraceAccess` / :func:`replay_trace` — run any access sequence
  through a platform's cache controllers (no programs needed); every
  trace consumer (both replays, the exact engine, fuzz cases) issues
  its accesses through :func:`drive`;
* generators for common patterns: :func:`sequential_trace`,
  :func:`strided_trace`, :func:`random_trace` (uniform) and
  :func:`hotspot_trace` (90/10-style skew), plus
  :func:`producer_consumer_trace` for two-processor sharing;
* multi-master stress generators for :func:`replay_parallel`:
  :func:`racy_traces` (unsynchronised writers on a shared footprint),
  :func:`false_sharing_traces` (private words packed into shared
  lines) and :func:`lock_contention_traces` (atomic swaps hammering
  one uncached lock word);
* :class:`TraceResult` with the hit/miss/traffic numbers extracted
  from the run.

All generators are seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.platform import LOCK_BASE, SHARED_BASE, Platform
from ..errors import ConfigError

__all__ = [
    "TraceAccess",
    "TraceResult",
    "drive",
    "replay_trace",
    "replay_parallel",
    "sequential_trace",
    "strided_trace",
    "random_trace",
    "hotspot_trace",
    "producer_consumer_trace",
    "racy_traces",
    "false_sharing_traces",
    "lock_contention_traces",
]


@dataclass(frozen=True)
class TraceAccess:
    """One access: which processor, read or write, where, what."""

    proc: int
    op: str          # "read" | "write" | "swap"
    addr: int
    value: int = 0

    def __post_init__(self):
        if self.op not in ("read", "write", "swap"):
            raise ConfigError(f"bad trace op {self.op!r}")


@dataclass
class TraceResult:
    """Counters extracted from a replayed trace."""

    accesses: int
    elapsed_ns: int
    hits: int
    read_misses: int
    write_misses: int
    fills: int
    writebacks: int
    bus_txns: int
    values: List[Optional[int]] = field(default_factory=list)

    @property
    def misses(self) -> int:
        """Total demand misses."""
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cache-visible accesses that hit."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def drive(platform: Platform, accesses: Sequence[TraceAccess], values=None):
    """Issue ``accesses`` through the platform's cache controllers, one
    at a time (a simulation process body).

    Each access completes before the next begins.  When ``values`` is a
    list, each access appends its result: the loaded word, the
    pre-swap word, or None for a write.  An access naming a processor
    the platform lacks raises :class:`ConfigError` (a dict, not the
    list: ``controllers[-1]`` would take ``proc == -1`` as the last
    master).
    """
    controllers = dict(enumerate(platform.controllers))
    for access in accesses:
        controller = controllers.get(access.proc)
        if controller is None:
            raise ConfigError("trace references a processor the config lacks")
        if access.op == "read":
            value = yield from controller.read(access.addr)
        elif access.op == "swap":
            value = yield from controller.swap(access.addr, access.value)
        else:
            yield from controller.write(access.addr, access.value)
            value = None
        if values is not None:
            values.append(value)


def replay_trace(platform: Platform, trace: Sequence[TraceAccess]) -> TraceResult:
    """Drive ``trace`` through the platform, one access at a time.

    Accesses are issued in order: each completes before the next begins
    (a serialised trace replay, suitable for locality studies; for
    contention studies use per-processor traces and
    :func:`replay_parallel`).
    """
    values: List[Optional[int]] = []
    platform.sim.process(drive(platform, trace, values))
    platform.sim.run(detect_deadlock=False)
    return _collect(platform, len(trace), values)


def replay_parallel(
    platform: Platform, traces: Dict[int, Sequence[TraceAccess]]
) -> TraceResult:
    """Replay one trace per processor concurrently (contention study)."""
    for proc, accesses in traces.items():
        for access in accesses:
            if access.proc != proc:
                raise ConfigError("trace assigned to the wrong processor")
        platform.sim.process(drive(platform, accesses), name=f"trace-p{proc}")
    platform.sim.run(detect_deadlock=False)
    total = sum(len(t) for t in traces.values())
    return _collect(platform, total, [])


def _collect(platform: Platform, n_accesses: int, values) -> TraceResult:
    stats = platform.stats
    names = [cfg.name for cfg in platform.config.cores]
    return TraceResult(
        accesses=n_accesses,
        elapsed_ns=platform.sim.now,
        hits=sum(stats.get(f"{n}.hits") for n in names),
        read_misses=sum(stats.get(f"{n}.read_misses") for n in names),
        write_misses=sum(stats.get(f"{n}.write_misses") for n in names),
        fills=sum(stats.get(f"{n}.fills") for n in names),
        writebacks=sum(stats.get(f"{n}.writebacks") for n in names),
        bus_txns=stats.get("bus.txns"),
        values=values,
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
def sequential_trace(
    n: int, proc: int = 0, base: int = SHARED_BASE, write_every: int = 4
) -> List[TraceAccess]:
    """Walk ``n`` consecutive words, writing every ``write_every``-th."""
    trace = []
    for i in range(n):
        addr = base + 4 * i
        if write_every and i % write_every == write_every - 1:
            trace.append(TraceAccess(proc, "write", addr, value=i))
        else:
            trace.append(TraceAccess(proc, "read", addr))
    return trace


def strided_trace(
    n: int, stride_bytes: int, proc: int = 0, base: int = SHARED_BASE
) -> List[TraceAccess]:
    """``n`` reads with a fixed stride (cache-geometry stress)."""
    if stride_bytes % 4:
        raise ConfigError("stride must be word-aligned")
    return [
        TraceAccess(proc, "read", base + i * stride_bytes) for i in range(n)
    ]


def random_trace(
    n: int,
    footprint_words: int,
    proc: int = 0,
    base: int = SHARED_BASE,
    write_ratio: float = 0.3,
    seed: int = 1,
) -> List[TraceAccess]:
    """Uniform random accesses over ``footprint_words`` words."""
    rng = random.Random(seed)
    trace = []
    for i in range(n):
        addr = base + 4 * rng.randrange(footprint_words)
        if rng.random() < write_ratio:
            trace.append(TraceAccess(proc, "write", addr, value=i))
        else:
            trace.append(TraceAccess(proc, "read", addr))
    return trace


def hotspot_trace(
    n: int,
    footprint_words: int,
    proc: int = 0,
    base: int = SHARED_BASE,
    hot_fraction: float = 0.1,
    hot_probability: float = 0.9,
    seed: int = 1,
) -> List[TraceAccess]:
    """90/10-style skew: most accesses hit a small hot set."""
    if not 0 < hot_fraction < 1:
        raise ConfigError("hot_fraction must be in (0, 1)")
    rng = random.Random(seed)
    hot_words = max(1, int(footprint_words * hot_fraction))
    trace = []
    for i in range(n):
        if rng.random() < hot_probability:
            word = rng.randrange(hot_words)
        else:
            word = hot_words + rng.randrange(max(1, footprint_words - hot_words))
        addr = base + 4 * word
        if rng.random() < 0.3:
            trace.append(TraceAccess(proc, "write", addr, value=i))
        else:
            trace.append(TraceAccess(proc, "read", addr))
    return trace


def producer_consumer_trace(
    n_items: int,
    producer: int = 0,
    consumer: int = 1,
    base: int = SHARED_BASE,
) -> List[TraceAccess]:
    """Producer writes each word, consumer reads it back (serialised)."""
    trace = []
    for i in range(n_items):
        addr = base + 4 * i
        trace.append(TraceAccess(producer, "write", addr, value=i + 1))
        trace.append(TraceAccess(consumer, "read", addr))
    return trace


# ---------------------------------------------------------------------------
# multi-master generators (for replay_parallel)
# ---------------------------------------------------------------------------
def _unique_value(proc: int, i: int) -> int:
    """A store value that identifies its writer and position."""
    return (proc + 1) * 1_000_000 + i


def racy_traces(
    n: int,
    procs: int = 2,
    footprint_words: int = 8,
    base: int = SHARED_BASE,
    write_ratio: float = 0.5,
    seed: int = 1,
) -> Dict[int, List[TraceAccess]]:
    """Unsynchronised processors hammering one small shared footprint.

    Every processor reads and writes the *same* few words with no
    ordering discipline — the canonical workload for exposing stale
    reads on software-disciplined (unwrapped) protocol pairs, and for
    proving their absence on coherent ones.  Store values encode
    ``(proc, i)`` so any stale value names its writer.
    """
    if procs < 1:
        raise ConfigError(f"procs must be >= 1, got {procs}")
    traces: Dict[int, List[TraceAccess]] = {}
    for proc in range(procs):
        rng = random.Random(f"{seed}:{proc}")
        trace = []
        for i in range(n):
            addr = base + 4 * rng.randrange(footprint_words)
            if rng.random() < write_ratio:
                trace.append(
                    TraceAccess(proc, "write", addr, value=_unique_value(proc, i))
                )
            else:
                trace.append(TraceAccess(proc, "read", addr))
        traces[proc] = trace
    return traces


def false_sharing_traces(
    n: int,
    procs: int = 2,
    base: int = SHARED_BASE,
    line_bytes: int = 32,
    lines: int = 2,
    seed: int = 1,
) -> Dict[int, List[TraceAccess]]:
    """Private per-processor words packed into *shared* cache lines.

    Processor ``p`` only ever touches word ``p mod words-per-line`` of
    its line group, so there is no true data sharing — but because the
    words share lines, every write invalidates (or updates) the other
    processors' copies.  The workload stresses line-granular coherence
    actions while the value check stays trivially satisfiable: each
    word has a single writer.

    When the processors fit one line (``4 * procs <= line_bytes``) the
    layout is the classic one word per processor per line.  Beyond
    that, each logical line becomes a *group* of adjacent lines — word
    slots fill the first line, overflow processors continue in the
    next — so arbitrarily many masters contend without any word ever
    having two writers.
    """
    words_per_line = line_bytes // 4
    if words_per_line < 1:
        raise ConfigError(f"a {line_bytes}-byte line holds no whole word")
    group_lines = -(-procs // words_per_line)  # ceil
    traces: Dict[int, List[TraceAccess]] = {}
    for proc in range(procs):
        rng = random.Random(f"{seed}:{proc}")
        trace = []
        for i in range(n):
            line = rng.randrange(lines)
            addr = (
                base
                + (line * group_lines + proc // words_per_line) * line_bytes
                + 4 * (proc % words_per_line)
            )
            if rng.random() < 0.7:
                trace.append(
                    TraceAccess(proc, "write", addr, value=_unique_value(proc, i))
                )
            else:
                trace.append(TraceAccess(proc, "read", addr))
        traces[proc] = trace
    return traces


def lock_contention_traces(
    n_acquires: int,
    procs: int = 2,
    lock_addr: int = LOCK_BASE,
    scratch_base: int = SHARED_BASE,
    seed: int = 1,
) -> Dict[int, List[TraceAccess]]:
    """Atomic swaps hammering one uncached lock word.

    Each processor repeatedly test-and-sets ``lock_addr`` (an atomic
    swap — which is only architecturally legal on *uncached* regions,
    hence the default of ``LOCK_BASE``), touches a private scratch
    word while "holding" the lock, then stores 0 to release.  Traces
    are open-loop (no data-dependent spinning), so this measures raw
    swap/bus contention rather than lock fairness.
    """
    if procs < 1:
        raise ConfigError(f"procs must be >= 1, got {procs}")
    traces: Dict[int, List[TraceAccess]] = {}
    for proc in range(procs):
        rng = random.Random(f"{seed}:{proc}")
        trace = []
        scratch = scratch_base + 4 * proc
        for i in range(n_acquires):
            trace.append(TraceAccess(proc, "swap", lock_addr, value=proc + 1))
            for _ in range(rng.randrange(1, 4)):  # critical-section work
                trace.append(
                    TraceAccess(proc, "write", scratch, value=_unique_value(proc, i))
                )
                trace.append(TraceAccess(proc, "read", scratch))
            trace.append(TraceAccess(proc, "write", lock_addr, value=0))
        traces[proc] = trace
    return traces
